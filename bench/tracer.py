"""Outside-in spans around qcm's public functions.

The tracer never edits qcm: it replaces the names a caller looks up.  Calls
from ``qcm.cli`` into another module go through proxy objects that stand in
for cli's module globals (``cls``, ``fock``, ``hilbert``, ``stats``,
``svg``); the parsers cli imports by name and ``linear_regression``, which
``classicality`` imports by name, are replaced in place.  Calls a module
makes to its own functions are not spans.

Spans live in memory as lists ``[name, start_ns, end_ns, parent, op, error,
note]`` and are written out once the run ends.
"""

from __future__ import annotations

import functools
import math
import time

TRACED = (
    "data.parse_membership_table",
    "data.parse_coincidence",
    "data.parse_count_datasets",
    "hilbert.parse_model",
    "classicality.check_conjunction",
    "classicality.check_disjunction",
    "classicality.check_negation",
    "classicality.deviation_profile",
    "classicality.profile_statistics",
    "stats.linear_regression",
    "stats.fit_distribution.MB",
    "stats.fit_distribution.BE",
    "stats.compare_bic",
    "stats.pmf_vector",
    "fock.fit_two_sector",
    "fock.fit_general_quadruple",
    "hilbert.expectations_from_table",
    "hilbert.marginal_law_check",
    "hilbert.verify_reference_model",
    "svg.render",
    "cli.main",
)

NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0  # id of the op in progress; the caller sets it
        self.main = None  # traced ``cli.main``, set by ``install``
        self._stack: list[int] = []

    def merge(self, spans: list[list]) -> None:
        """Append spans a child process recorded, as part of the current op."""
        offset = len(self.spans)
        for span in spans:
            if span[PARENT] is not None:
                span[PARENT] += offset
            span[OP] = self.op
            self.spans.append(span)

    def wrap(self, name, fn, *, name_of=None, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` adds detail."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [
                name_of(args, kwargs) if name_of else name,
                time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else None,
                self.op, False, None,
            ]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                self._stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced


class _ModuleProxy:
    """Stands in for a module: wrapped names first, the real module after."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _fit_family(args, kwargs):
    return f"stats.fit_distribution.{kwargs.get('family', args[1] if len(args) > 1 else '')}"


def _general_fit_note(args, result):
    params = result.params
    interference = sum(
        pair.n2 * abs(pair.beta * math.cos(pair.phi_rad))
        for pair in (params.ab, params.abp, params.apb, params.apbp)
    )
    return {"shortcut": result.family.kind == "point", "interference": interference}


def install(tracer: Tracer, cli):
    """Route ``cli``'s calls into the other modules through ``tracer``.

    Sets ``tracer.main`` and returns a function that restores every
    replaced name.
    """
    from qcm import classicality

    def wrapped(module_name, module, names, **options):
        return {
            attr: tracer.wrap(f"{module_name}.{attr}", getattr(module, attr),
                              **options.get(attr, {}))
            for attr in names
        }

    proxies = {
        "cls": wrapped("classicality", cli.cls, (
            "check_conjunction", "check_disjunction", "check_negation",
            "deviation_profile", "profile_statistics")),
        "fock": wrapped("fock", cli.fock, ("fit_two_sector", "fit_general_quadruple"),
                        fit_general_quadruple={"note": _general_fit_note}),
        "hilbert": wrapped("hilbert", cli.hilbert, (
            "parse_model", "expectations_from_table", "marginal_law_check",
            "verify_reference_model")),
        "stats": wrapped("stats", cli.stats, ("fit_distribution", "compare_bic", "pmf_vector"),
                         fit_distribution={"name_of": _fit_family,
                                           "note": lambda args, result: result.params.n_total}),
        "svg": wrapped("svg", cli.svg, ("render",),
                       render={"note": lambda args, result: len(result.encode("utf-8"))}),
    }
    replacements = [(cli, name, _ModuleProxy(getattr(cli, name), attrs))
                    for name, attrs in proxies.items()]
    replacements += [(cli, attr, tracer.wrap(f"data.{attr}", getattr(cli, attr)))
                     for attr in ("parse_membership_table", "parse_coincidence",
                                  "parse_count_datasets")]
    replacements.append((classicality, "linear_regression",
                         tracer.wrap("stats.linear_regression", classicality.linear_regression)))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    tracer.main = tracer.wrap("cli.main", cli.main)

    def uninstall():
        for owner, attr, value in saved:
            setattr(owner, attr, value)
        tracer.main = None

    return uninstall


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result
