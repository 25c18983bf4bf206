"""The program side of the benchmark, driven by JSON lines on stdin.

    child.py sweep      import the package, then run each certificate
                        ``{"name": ..., "args": {...}}`` read from stdin
    child.py serve      import the package and warm its caches, then
                        answer spot-check queries read from stdin

Both modes fork for their work, so that every repeat starts from the same
state: ``sweep`` runs each certificate in a fork of the freshly imported
package (cold caches, as in a new interpreter, without paying its start
again), and ``serve`` answers a ``{"op": "fork"}`` by handing the
following queries, up to ``{"op": "end"}``, to a fork of the warm server.
The parent process sees ``{"done": status}`` once the fork has ended.

Options: ``--trace`` (install the span tracer and report its summary),
``--sabotage NAME`` (swap in a wrong routine; the benchmark's self-test
uses it).

Every mode prints JSON lines on stdout.  Timestamps are
``time.monotonic()``, which the parent reads from the same clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
import traceback
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _import_package():
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: the certificates' asserts would vanish")
    sys.path.insert(0, SRC)
    import hecke_ribbon
    from hecke_ribbon import modules, series, shapes, verify  # noqa: F401

    if not os.path.abspath(hecke_ribbon.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported hecke_ribbon from {hecke_ribbon.__file__}, not from {SRC}")


def _sabotage(name: str) -> None:
    """Replace one routine by a plausible wrong variant everywhere it is bound."""
    from hecke_ribbon import modules, series
    from tracer import rebind

    def zero_skew(a, f, side="right"):
        space = series.coproduct_spaces(a.space)[0 if side == "right" else 1]
        return series.SeriesElement(space, a.basis, {})

    def violated_relations(module):
        return ["sabotaged: a relation is reported violated"]

    wrong = {"series.skew": (series.skew, zero_skew), "modules.check_relations": (modules.check_relations, violated_relations)}
    if name not in wrong:
        sys.exit(f"unknown sabotage {name!r}; known: {sorted(wrong)}")
    old, new = wrong[name]
    rebind({id(old): new})


def _describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# --- host-speed probe ---------------------------------------------------------

PROBE_PERIOD_S = 0.003


def _probe() -> float:
    """The time of a fixed loop, which the parent compares with its time
    on an idle core to learn how fast the host runs the work just now."""
    start = time.perf_counter()
    total = 0
    for i in range(300):
        total += i * i % 7
    return time.perf_counter() - start


@contextmanager
def probed(on: bool):
    """Time the probe every PROBE_PERIOD_S of the block, from SIGALRM.
    Yields [sum, count] of the probe times, filled in as the block runs."""
    acc = [0.0, 0]
    if not on:
        yield acc
        return

    def tick(signum, frame):
        t = _probe()
        acc[0] += t
        acc[1] += 1

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield acc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- forks --------------------------------------------------------------------


def _forked(work) -> None:
    """Run work() in a fork, wait for it, and report how it ended."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            work()
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    _emit({"done": os.waitstatus_to_exitcode(status)})


def _prefork() -> None:
    # keep the objects made so far out of the forks' garbage collections,
    # which would otherwise copy every page they touch
    gc.collect()
    gc.freeze()


# --- sweeps -------------------------------------------------------------------


def sweep(unit: dict, tracer) -> None:
    from hecke_ribbon import verify

    certificate = verify.CERTIFICATES[unit["name"]]
    if tracer is not None:
        tracer.install()
    with probed(tracer is None) as probe:
        t_first = time.monotonic()
        try:
            verdict = {"passed": True, "detail": certificate(**unit["args"])}
        except Exception as exc:  # a certificate must not abort the sweep
            verdict = {"passed": False, "detail": _describe(exc)}
        t_last = time.monotonic()
    _emit({"verdict": verdict, "t_first": t_first, "t_last": t_last, "probe": probe, "trace": tracer and tracer.summary()})


def sweeps(tracer) -> None:
    _prefork()
    _emit({"ready": time.monotonic()})
    for line in iter(sys.stdin.readline, ""):
        unit = json.loads(line)
        _forked(lambda: sweep(unit, tracer))


# --- spot checks --------------------------------------------------------------


def _checks():
    """Each check computes one input along two routes and returns None
    when they agree, or a description of the disagreement."""
    from hecke_ribbon import modules, series, shapes
    from hecke_ribbon.qpoly import QPoly

    def E(space, basis, parts):
        return series.element(space, basis, parts)

    def shape_of(spec):
        kind, comps = spec
        return shapes.Shape(kind, tuple(tuple(c) for c in comps))

    def via_h(shape):
        h = series.SeriesElement("NSym", "h", {})
        for gamma in shapes.bracket_set(shape):
            h = h + series.convert(E("NSym", "s", gamma.parts), "h")
        total = {}
        for left, right, c in series.coproduct(h):
            ls = series.convert(E("NSym", "h", left), "s").terms
            rs = series.convert(E("NSym", "h", right), "s").terms
            for l2, cl in ls.items():
                for r2, cr in rs.items():
                    total[(l2, r2)] = total.get((l2, r2), QPoly()) + c * cl * cr
        return {k: v for k, v in total.items() if v}

    def skew(q):
        alpha, beta = tuple(q["alpha"]), tuple(q["beta"])
        a, f = E("NSym", "s", alpha), E("QSym", "F", beta)
        if series.skew(a, f, "right") != series.skew(a, f, "left"):
            return "left and right skews differ"
        # anchor with a known nonzero value, so a skew that returns zero
        # on both sides cannot pass: F_alpha / s_suffix = F_prefix
        k = sum(beta)
        m = sum(alpha) - k
        dset = shapes.parts_descents(alpha)
        suffix = shapes.parts_from_descents({d - m for d in dset if d > m}, k, "A")
        prefix = shapes.parts_from_descents({d for d in dset if d < m}, m, "A")
        if series.skew(E("QSym", "F", alpha), E("NSym", "s", suffix), "right") != E("QSym", "F", prefix):
            return "skew of a fundamental by its suffix ribbon is not its prefix"
        return None

    def coproduct(q):
        shape = shape_of(q["shape"])
        direct = {k: v for k, v in series.schur_coproduct(shape).items() if v}
        return None if direct == via_h(shape) else "direct and h-route coproducts differ"

    def q_ribbon(q):
        parts = tuple(q["parts"])
        same = series.q_ribbon(parts, "det") == series.q_ribbon(parts, "ie")
        return None if same else "det and ie q-ribbon numbers differ"

    def relations(q):
        violations = modules.check_relations(modules.build_p(shape_of(q["shape"])))
        return violations[0] if violations else None

    def filtration(q):
        shape = shape_of(q["shape"])
        labels = set(modules.filtration_by_descent(modules.build_p(shape)).labels)
        return None if labels == set(shapes.bracket_set(shape)) else "filtration layers differ from the bracket set"

    return {
        "skew": skew,
        "coproduct": coproduct,
        "q_ribbon": q_ribbon,
        "relations_A7": relations,
        "relations_B5": relations,
        "filtration": filtration,
    }


def _warm_up() -> None:
    """Fill the package's caches for the spot-check pools: basis
    conversions and bracket sets up to size 8, and the modules of the
    relations and filtration pools."""
    from hecke_ribbon import modules, series, shapes

    E = series.element
    for n in range(9):
        for alpha in shapes.enumerate_shapes(n, "A"):
            series.convert(E("NSym", "s", alpha.parts), "h")
            series.convert(E("NSym", "h", alpha.parts), "s")
            series.convert(E("QSym", "F", alpha.parts), "M")
    for n in range(1, 9):
        for shape in shapes.enumerate_generalized(n, "A", 3):
            shapes.bracket_set(shape)
    for shape in list(shapes.enumerate_shapes(7, "A")) + list(shapes.enumerate_generalized(7, "A", 3)):
        modules.build_p(shape)
    for alpha in shapes.enumerate_shapes(5, "B"):
        modules.build_p(alpha)
    series.q_ribbon((1,) * 9, "ie")
    series.q_ribbon((4, 5), "det")


def serve(tracer) -> None:
    checks = _checks()
    _warm_up()
    if tracer is not None:
        tracer.install()
    _prefork()
    answer(checks, tracer)


def answer(checks, tracer) -> None:
    """Announce readiness, then answer queries until stdin closes or, in a
    fork, until an "end".  The parent sends nothing before the fork's
    announcement, so no query waits in a buffer the fork copies."""
    _emit({"ready": time.monotonic()})
    for line in iter(sys.stdin.readline, ""):
        q = json.loads(line)
        if q.get("op") == "end":
            return
        if q.get("op") == "fork":
            _forked(lambda: answer(checks, tracer))
            continue
        if q.get("op") == "report":
            _emit({"trace": tracer and tracer.summary()})
            continue
        check = checks[q["kind"]]
        with probed(tracer is None) as probe:
            try:
                if tracer is None:
                    problem = check(q)
                else:
                    problem = tracer.span(f"spot.{q['kind']}", check, q)
            except Exception as exc:  # one bad query must not stop the stream
                problem = _describe(exc)
        _emit({"ok": problem is None, "problem": problem, "probe": probe})


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweep", "serve"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--sabotage")
    args = parser.parse_args()
    _import_package()
    if args.sabotage:
        _sabotage(args.sabotage)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    if args.mode == "serve":
        serve(tracer)
    else:
        sweeps(tracer)


if __name__ == "__main__":
    main()
