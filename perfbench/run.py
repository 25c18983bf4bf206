"""The hecke-ribbon benchmark.  See perfbench/README.md.

    python3 perfbench/run.py --workload sweep-series --seed 1 --seconds 40 --trace 0

Prints a header with the seed, the Python version and nproc, one line
per metric, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits 1 when an output was wrong, 2 when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stream  # noqa: E402
from tracer import CACHES, LAYERS  # noqa: E402

# Each certificate with the arguments it runs at.  The sizes are below the
# registry defaults where a certificate would take longer than about half a
# second: a pass must fit into one run many times over for the medians of
# its certificates' times to be steady (see README.md).
SWEEPS = {
    "sweep-series": [
        ("coproduct", {"max_size": 5}),
        ("duality", {"max_size": 5, "max_size_bd": 3}),
        ("skew", {"max_size": 4}),
        ("qidentities", {"max_size": 5, "ribbon_size": 6, "band_size": 5}),
    ],
    "sweep-modules": [
        *((name, {"kind": kind}) for name in ("relations", "dimensions", "induction") for kind in "ABD"),
        ("restriction", {}),
        ("antipode", {"max_size": 5}),
        ("symmetry", {}),
        ("demazure", {"op_degree": 5}),
        ("truncation", {"max_size_bd": 3}),
        ("characteristics", {}),
    ],
}
WORKLOADS = (*SWEEPS, "spot-checks")
CERTIFICATES = (
    "relations",
    "dimensions",
    "induction",
    "restriction",
    "coproduct",
    "duality",
    "antipode",
    "symmetry",
    "skew",
    "qidentities",
    "demazure",
    "truncation",
    "characteristics",
)
SPOT_ROUNDS = 12  # the batch every spot-check server answers is 12 times stream.MIX
SPOT_FORKS = 2  # replays of the batch per warmed spot-check server
CHILD_TIMEOUT = 170.0
# The fastest time of child.py's probe loop on an idle core of a 2.1 GHz
# Intel Xeon under Python 3.11.7.  The host lends its cores to other tenants,
# and how much that slows the work swings by half within minutes; so each
# time is scaled by this over the probe's mean time while the work ran,
# which puts it in units of the probe's speed (see README.md).
PROBE_REF_S = 13.4e-6


class BenchError(Exception):
    """The benchmark cannot run here."""


# --- children -------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HECKE_RIBBON_MAX_ENUM", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so every count, repeats
    return env


class Child:
    """A child.py process, and the forks it makes, spoken to in JSON lines."""

    def __init__(self, mode: str, trace: bool, sabotage: str | None):
        flags = (["--trace"] if trace else []) + (["--sabotage", sabotage] if sabotage else [])
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode, *flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        # reads have no timeout, so a hung child and its forks are killed here
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self._kill)
        self._watchdog.start()
        ready = self.read()
        if ready is None or "ready" not in ready:
            self.close()
            raise BenchError(f"the {mode} process did not start")
        self.setup_s = ready["ready"] - spawned

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def read(self) -> dict | None:
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def send(self, message: dict) -> bool:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return False
        return True

    def ask(self, message: dict) -> dict | None:
        return self.read() if self.send(message) else None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()


# --- measurements ---------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _load_goldens() -> dict[str, dict]:
    with open(os.path.join(HERE, "goldens.json")) as fh:
        return json.load(fh)


def _sweep_pass(units, trace: bool, tally: Tally, goldens, sabotage: str | None) -> dict:
    """One sweep: each certificate in a fork of a newly started process that
    has just imported the package, so with cold caches as a CLI user runs
    it; each verdict checked against the goldens."""
    child = Child("sweep", trace, sabotage)
    walls, ref_walls, probes, summaries = {}, {}, [0.0, 0], []
    try:
        for name, args in units:
            label = f"{name}[{args['kind']}]" if "kind" in args else name
            lines = [child.ask({"name": name, "args": args})]
            while lines[-1] is not None and "done" not in lines[-1]:
                lines.append(child.read())
            final = next((x for x in lines if x and "verdict" in x), None)
            if final is None:
                tally.record(False, f"{label}: the certificate process died")
                if lines[-1] is None:
                    break
                continue
            got = final["verdict"]
            tally.record(got == goldens.get(label), f"{label}: {got['detail']}")
            probe = final["probe"]
            walls[label] = final["t_last"] - final["t_first"] - probe[0]
            ref_walls[label] = _at_ref_speed(walls[label], probe)
            probes = [probes[0] + probe[0], probes[1] + probe[1]]
            if final.get("trace"):
                summaries.append(final["trace"])
    finally:
        child.close()
    return {
        "setup": child.setup_s,
        "walls": walls,
        "ref_walls": ref_walls,
        "probes": probes,
        "wall": sum(walls.values()),
        "trace": _merge(summaries),
    }


def _merge(summaries: list[dict]) -> dict | None:
    """Add up the tracer summaries of several processes."""
    if not summaries:
        return None
    out = {"by_name": {}, "counts": {}, "caches": {}, "spans": []}
    for summary in summaries:
        for key in ("by_name", "caches"):
            for name, pair in summary[key].items():
                acc = out[key].setdefault(name, [0, 0])
                acc[0] += pair[0]
                acc[1] += pair[1]
        for name, value in summary["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        out["spans"].append(summary["spans"])
    return out


def _write_spans(summary: dict | None, name: str) -> None:
    if summary:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", name), "w") as fh:
            json.dump(summary, fh)


def run_sweep(workload: str, seed: int, seconds: int, trace: bool, sabotage: str | None) -> tuple[Tally, dict]:
    units = list(SWEEPS[workload])
    random.Random(seed).shuffle(units)
    goldens = _load_goldens()
    tally = Tally()
    if trace:
        plain = _sweep_pass(units, False, tally, goldens, sabotage)
        traced = _sweep_pass(units, True, tally, goldens, sabotage)
        _write_spans(traced["trace"], f"spans-{workload}-seed{seed}.json")
        cert_s = dict.fromkeys(CERTIFICATES, 0.0)
        for label, wall in plain["walls"].items():
            cert_s[label.split("[")[0]] += wall
        return tally, layer_metrics(traced["trace"], cert_s, {}, plain["wall"], traced["wall"])
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_sweep_pass(units, False, tally, goldens, sabotage))
        per_pass = (time.monotonic() - start) / len(passes)
        if time.monotonic() - start + per_pass > seconds:
            break
    repeats: dict[str, list[float]] = {}
    for p in passes:
        for label, wall in p["ref_walls"].items():
            repeats.setdefault(label, []).append(wall)
    if not repeats:
        raise BenchError("no certificate ran")
    setups = [p["setup"] for p in passes]
    probes = [sum(p["probes"][0] for p in passes), sum(p["probes"][1] for p in passes)]
    return tally, _timings(setups, repeats.values(), probes, f"{len(passes)} passes over {len(units)} certificates")


def _at_ref_speed(seconds: float, probe: list) -> float:
    """A time measured while the probe took probe[0] / probe[1] seconds
    on average, as it would be where the probe takes PROBE_REF_S."""
    total, count = probe
    return seconds * PROBE_REF_S / (total / count) if count else seconds


def _timings(setups: list[float], repeats, probes: list, samples: str) -> dict:
    """End-to-end metrics from set-up times and the repeated times (at the
    probe's reference speed) of each unit of work: a certificate, or a
    spot-check query.  A unit's time is the median of its repeats."""
    unit_ms = [statistics.median(r) * 1e3 for r in repeats]
    total, count = probes
    speed = f"probe {total / count * 1e6:.1f} us on average against {PROBE_REF_S * 1e6:.1f} us idle" if count else "no probe"
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(unit_ms) / 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "query_p50_ms": statistics.median(unit_ms),
        "query_p90_ms": _percentile(unit_ms, 90),
        "_samples": f"{samples}, {len(setups)} set-ups; {speed}",
    }


def _peak_rss_mb() -> float:
    # ru_maxrss of reaped children is their largest peak, in KiB on Linux;
    # it covers the forks, which their parents reaped
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _replay(server: Child, batch: list[dict], tally: Tally) -> tuple[list[float], dict, list] | None:
    """Closed loop, one client: send the next query once the last is
    answered.  The latency of each query less the probe's share, at the
    probe's reference speed; the plain latencies by kind; and the probe's
    [sum, count].  None when the server died."""
    lat: list[float] = []
    ref_lat: list[float] = []
    unprobed: list[int] = []
    by_kind: dict[str, list[float]] = {}
    probes = [0.0, 0]
    for q in batch:
        sent = time.monotonic()
        reply = server.ask(q)
        done = time.monotonic()
        if reply is None or "ok" not in reply:
            tally.record(False, f"{q['kind']}: the server died")
            return None
        tally.record(bool(reply["ok"]), f"{json.dumps(q)}: {reply.get('problem')}")
        probe = reply["probe"]
        lat.append(done - sent - probe[0])
        by_kind.setdefault(q["kind"], []).append(lat[-1] * 1e3)
        probes = [probes[0] + probe[0], probes[1] + probe[1]]
        ref_lat.append(_at_ref_speed(lat[-1], probe))
        if not probe[1]:
            unprobed.append(len(lat) - 1)
    # a query too short to be probed runs at the replay's mean speed
    for i in unprobed:
        ref_lat[i] = _at_ref_speed(lat[i], probes)
    return ref_lat, by_kind, probes


def _traced_replay(batch: list[dict], trace: bool, tally: Tally, sabotage: str | None) -> tuple[float, dict, dict | None]:
    server = Child("serve", trace, sabotage)
    try:
        start = time.monotonic()
        replay = _replay(server, batch, tally)
        elapsed = time.monotonic() - start
        report = server.ask({"op": "report"}) if trace and replay else None
    finally:
        server.close()
    if replay is None:
        raise BenchError("the spot-check server died")
    return elapsed, replay[1], _merge([report["trace"]]) if report and report.get("trace") else None


def _forked_replays(batch: list[dict], tally: Tally, sabotage: str | None, replays: list, more) -> float:
    """Warm one server, then replay the batch in up to SPOT_FORKS forks of
    it while more() holds; each replay's latencies and probe [sum, count]
    go to replays.  Returns the server's set-up time."""
    server = Child("serve", False, sabotage)
    try:
        for _ in range(SPOT_FORKS):
            if not more():
                break
            if server.ask({"op": "fork"}) is None:
                tally.record(False, "the server died")
                break
            replay = _replay(server, batch, tally)
            if replay is None:
                break
            replays.append((replay[0], replay[2]))
            if server.ask({"op": "end"}) != {"done": 0}:
                tally.record(False, "a fork of the server did not end cleanly")
                break
    finally:
        server.close()
    return server.setup_s


def run_spot(seed: int, seconds: int, trace: bool, sabotage: str | None) -> tuple[Tally, dict]:
    """Replay one seeded batch of queries in forks of warmed servers, so
    that every replay of a query starts from the same state and does the
    same work."""
    batch = stream.batch(seed, SPOT_ROUNDS)
    tally = Tally()
    if trace:
        plain, by_kind, _ = _traced_replay(batch, False, tally, sabotage)
        traced, _, summary = _traced_replay(batch, True, tally, sabotage)
        _write_spans(summary, f"spans-spot-checks-seed{seed}.json")
        return tally, layer_metrics(summary, {}, by_kind, plain, traced)
    setups, replays = [], []
    start = time.monotonic()

    def more() -> bool:
        # another replay, if it can end in time at the pace so far
        elapsed = time.monotonic() - start
        return not replays or elapsed + elapsed / len(replays) <= seconds

    while more() and tally.failed == 0:
        setups.append(_forked_replays(batch, tally, sabotage, replays, more))
    if not replays:
        raise BenchError("the spot-check server answered no batch")
    repeats = zip(*(lat for lat, _ in replays))
    probes = [sum(p[0] for _, p in replays), sum(p[1] for _, p in replays)]
    return tally, _timings(setups, repeats, probes, f"{len(replays)} replays of {len(batch)} queries")


def layer_metrics(summary: dict | None, cert_s: dict, spot_by_kind: dict, plain_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from a traced pass's summary, certificate times and
    spot-check latencies from the untraced pass beside it."""
    summary = summary or {"by_name": {}, "counts": {}, "caches": {}, "spans": []}
    by_name, counts = summary["by_name"], summary["counts"]

    def calls(prefix: str) -> int:
        return sum(n for name, (n, _) in by_name.items() if name.startswith(prefix))

    def calls_of(name: str) -> int:
        return by_name.get(name, (0, 0))[0]

    out = {
        "qpoly.ops": calls("qpoly.QPoly."),
        "series.convert_calls": calls_of("series.convert"),
        "series.pairing_calls": calls_of("series.pairing"),
        "series.coproduct_calls": calls_of("series.coproduct"),
        "shapes.calls": calls("shapes."),
        "linalg.calls": calls("linalg."),
        "groups.elements_enumerated": counts.get("groups.elements_enumerated", 0),
        "tableaux.tableaux_enumerated": counts.get("tableaux.tableaux_enumerated", 0),
        "modules.modules_built": counts.get("modules.modules_built", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, (_, t) in by_name.items() if name.startswith(layer + "."))
    for cert in CERTIFICATES:
        out[f"verify.{cert}.s"] = cert_s.get(cert, 0.0)
    for key in CACHES:
        hits, misses = summary["caches"].get(key, (0, 0))
        out[f"cache.{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"cache.{key}.attempts"] = hits + misses
    for kind in stream.MIX:
        lat = spot_by_kind.get(kind)
        out[f"spot.{kind}.p50_ms"] = statistics.median(lat) if lat else 0.0
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["_samples"] = f"{sum(map(len, summary['spans']))} spans kept"
    return out


# --- entry point ----------------------------------------------------------------


def _declared(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", help="swap in a wrong routine (the self-test uses this)")
    args = parser.parse_args(argv)
    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under python -O: the certificates' asserts would vanish")
        if not os.path.isfile(os.path.join(ROOT, "src", "hecke_ribbon", "__init__.py")):
            raise BenchError(f"no hecke_ribbon sources under {os.path.join(ROOT, 'src')}")
        declared = _declared(bool(args.trace))
        print(
            f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))}",
            flush=True,
        )
        if args.workload in SWEEPS:
            tally, values = run_sweep(args.workload, args.seed, args.seconds, bool(args.trace), args.sabotage)
        else:
            tally, values = run_spot(args.seed, args.seconds, bool(args.trace), args.sabotage)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if tally.attempted == 0:
        tally.record(False, "nothing was checked")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"# samples: {values['_samples']}")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    correct = tally.failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
