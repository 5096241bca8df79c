"""The repository benchmark: one command, four single-thread workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_waves --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run repeats seeded *rounds* of one workload until ``--seconds`` have
passed. Round ``k`` uses the sub-seed ``sha256(seed, k)``. A warm-up
round of sub-seed 0 comes first; it is checked but not measured. With
``--trace 0`` the measured rounds are ``0, 1, 2, ...``, so sub-seed 0
runs twice and deterministic workloads prove identical dispositions;
the end-to-end metrics come from them. With ``--trace 1`` every sub-seed
runs both untraced and traced; the traced rounds give the per-layer
metrics, the untraced ones the tracing overhead, and each pair must
agree on the disposition digest.

The program is imported from ``src/`` of the checkout holding this
directory; without it the command exits non-zero before printing any
result. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layertrace import LayerTracer, layer_metrics, percentile

ROOT = Path(__file__).resolve().parent.parent
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it
HASH_SEED = "0"


def sub_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90 with ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if count * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """Rounds of one workload, their checks, and the metrics they yield."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> None:
        import workloads

        self.workloads = workloads
        self.name = workload
        self.round_fn = workloads.WORKLOADS[workload]
        self.deterministic = workload in workloads.DETERMINISTIC
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.tracer = LayerTracer() if trace else None
        self.untraced: List[object] = []
        self.traced: List[object] = []
        self.digests: Dict[int, str] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def schedule(self):
        """(sub-seed index, traced) pairs, in run order.

        The first round warms up: it is checked like every other round
        but left out of the metrics, and it runs sub-seed 0, which the
        measured rounds repeat. Traced runs alternate which side of each
        sub-seed pair goes first, so drift over the run cancels out of
        the tracing overhead.
        """
        yield 0, False
        index = 0
        while True:
            if not self.trace:
                yield index, False
            elif index % 2:
                yield index, False
                yield index, True
            else:
                yield index, True
                yield index, False
            index += 1

    def enough(self) -> bool:
        if self.trace:
            return bool(self.traced) and bool(self.untraced)
        if len(self.untraced) < 2:
            return False
        if self.name == "surge_replay":
            return True
        return sum(r.decided for r in self.untraced) >= 100 * TAIL_SAMPLES * self.scale

    def execute(self) -> None:
        deadline = time.perf_counter() + self.seconds
        hard_stop = deadline + 60.0  # bounds a run that never gathers enough samples
        for position, (index, traced) in enumerate(self.schedule()):
            measure = self.workloads.Measure(self.tracer if traced else None)
            # Only deterministic workloads compare the warm-up's digest, so
            # the others warm up on a quarter of a round.
            scale = self.scale
            if not position and not self.deterministic:
                scale *= 0.25
            gc.collect()
            try:
                result = self.round_fn(sub_seed(self.seed, index), measure, scale)
            except Exception:
                traceback.print_exc(file=sys.stdout)
                self.problems.append(f"round {index} raised")
                self.attempted += 1
                self.failed += 1
                return
            result.index = index
            result.problems.extend(measure.problems)
            if self.tracer is not None:
                if traced:
                    self.tracer.fold()
                elif self.tracer.spans:
                    result.problems.append("spans recorded in an untraced round")
            if self.deterministic:
                expected = self.digests.setdefault(index, result.digest)
                if expected != result.digest:
                    result.problems.append(
                        f"disposition digest of sub-seed {index} differs between "
                        f"{'traced and untraced' if self.trace else 'repeated'} rounds"
                    )
            self.attempted += result.submitted
            if result.problems:
                self.failed += result.submitted
                for problem in result.problems:
                    self.problems.append(f"round {index}: {problem}")
            if position:
                (self.traced if traced else self.untraced).append(result)
            now = time.perf_counter()
            if (now >= deadline and self.enough()) or now >= hard_stop:
                return

    # -- end-to-end metrics --------------------------------------------------

    def end_to_end(self) -> Tuple[Dict[str, float], List[str]]:
        """End-to-end metrics of the measured untraced rounds.

        Throughput and wall latencies are medians of per-round values, so
        one round disturbed by the machine moves them little; every round
        decides enough requests for its own p99. Replay latencies are
        deterministic per sub-seed, so surge_replay takes the median over
        its distinct replays.
        """
        rounds = self.untraced
        wl = self.workloads
        lines: List[str] = []
        submitted = sum(r.submitted for r in rounds)
        admitted = sum(r.admitted for r in rounds)
        degraded = sum(r.degraded for r in rounds)
        setups = [x for r in rounds for x in r.setup_s]
        per_round_rps = [r.decided / r.wall_s for r in rounds]

        def timing(label: str, samples: List[float]) -> None:
            n = len(samples)
            tail = tail_percentile(n)
            text = f"{label:<22} p50 {percentile(samples, 50):10.4f} ms"
            if tail is not None:
                text += f"  p{tail:g} {percentile(samples, tail):10.4f} ms"
            lines.append(f"{text}  (n={n})")

        if self.name == "surge_replay":
            # Replays of one sub-seed repeat each other exactly.
            replays = list({r.index: r.sim_latency_ms for r in rounds}.values())
            p50s = [v["p50"] for v in replays]
            p99s = [v["p99"] for v in replays]
            counts = [int(v["count"]) for v in replays]
            latency_label = "sim"
        else:
            p50s = [percentile(r.latency_ms, 50) for r in rounds]
            p99s = [percentile(r.latency_ms, 99) for r in rounds]
            counts = [len(r.latency_ms) for r in rounds]
            latency_label = "wall"
        if min(counts) < 100 * TAIL_SAMPLES * self.scale:
            self.problems.append(f"only {min(counts)} latency samples, too few for a p99")
        metrics: Dict[str, float] = {
            "setup_s": statistics.median(setups),
            "throughput_rps": statistics.median(per_round_rps),
            "latency_p50_ms": statistics.median(p50s),
            "latency_p99_ms": statistics.median(p99s),
            "goodput": (admitted + degraded) / submitted if submitted else 0.0,
            "full_qos_share": admitted / (admitted + degraded) if admitted + degraded else 0.0,
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        rounds_note = (
            f"median of {len(p50s)} {'replays' if self.name == 'surge_replay' else 'rounds'}, "
            f"n={min(counts)}..{max(counts)} each"
        )
        lines += [
            f"{'setup_s':<22} p50 {metrics['setup_s']:10.4f} s   (n={len(setups)} set-ups)",
            f"{'throughput_rps':<22} {metrics['throughput_rps']:14.4f} 1/s "
            f"(median of {len(rounds)} rounds, n={sum(r.decided for r in rounds)} outcomes)",
            f"{'latency_p50_ms':<22} {metrics['latency_p50_ms']:14.4f} ms  "
            f"({latency_label}_p50_ms, {rounds_note})",
            f"{'latency_p99_ms':<22} {metrics['latency_p99_ms']:14.4f} ms  "
            f"({latency_label}_p99_ms, {rounds_note})",
            f"{'goodput':<22} {metrics['goodput']:14.4f} ratio (n={submitted} submitted)",
            f"{'full_qos_share':<22} {metrics['full_qos_share']:14.4f} ratio (n={admitted + degraded} admitted)",
            f"{'degraded_share':<22} {1.0 - metrics['full_qos_share']:14.4f} ratio (n={admitted + degraded} admitted)",
            f"{'max_rss_mb':<22} {metrics['max_rss_mb']:14.4f} MB    (n=1 process)",
            "per-round throughput_rps " + " ".join(f"{x:.1f}" for x in per_round_rps),
        ]
        if self.name != "surge_replay":
            timing("sim_config_ms", [x for r in rounds for x in r.sim_config_ms])
            limit = (
                wl.OPEN_LATENCY_LIMIT_MS
                if self.name == "open_arrivals"
                else wl.CLOSED_LATENCY_LIMIT_MS[self.name]
            )
            slo = sum(r.slo_met for r in rounds) / submitted if submitted else 0.0
            lines.append(
                f"{'slo_share':<22} {slo:14.4f} ratio (admitted within {limit:g} ms, "
                f"n={submitted} submitted)"
            )
        if self.name == "open_arrivals":
            late = [x for r in rounds for x in r.late_ms]
            timing("generator_late_ms", late)
            if percentile(late, 99) > wl.OPEN_LATENCY_LIMIT_MS:
                lines.append(
                    f"FLAG generator lateness p99 {percentile(late, 99):.3f} ms exceeds "
                    f"the {wl.OPEN_LATENCY_LIMIT_MS:g} ms latency limit"
                )
        return metrics, lines

    # -- per-layer metrics ---------------------------------------------------

    def per_layer(self) -> Tuple[Dict[str, float], List[str]]:
        metrics, extra = layer_metrics(self.tracer, self.traced, self.untraced)
        if abs(extra["layer_share_sum"] - 1.0) > 1e-6:
            self.problems.append(
                f"layer shares sum to {extra['layer_share_sum']:.9f}, not 1 ± 1e-6"
            )
        lines = [f"{name:<36} {value:14.6f}" for name, value in sorted(metrics.items())]
        lines += [
            f"{name:<36} {value:14.6f}  (not in every workload: printed only)"
            for name, value in sorted(extra.items())
        ]
        return metrics, lines


def result_line(run: Run, declared: List[dict], values: Dict[str, float]) -> dict:
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            run.problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return {
        "correct": not run.problems,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, out=sys.stdout) -> dict:
    """Run one workload and print its report; returns the result object."""
    spec = benchmark_spec()
    run = Run(workload, seed, seconds, trace, scale)
    run.execute()
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": {"untraced": len(run.untraced), "traced": len(run.traced)},
    }
    print(f"env {json.dumps(env, sort_keys=True)}", file=out)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values: Dict[str, float] = {}
    if run.untraced and (run.traced or not trace):
        values, lines = (run.per_layer() if trace else run.end_to_end())
        for line in lines:
            print(line, file=out)
    for problem in run.problems:
        print(f"FAILED CHECK {problem}", file=out)
    result = result_line(run, declared, values)
    print(json.dumps(result, sort_keys=True), file=out)
    return result


def self_test() -> int:
    """Hygiene checks plus every workload in its shortest mode."""
    from repro.observability.tracing import NullTracer, get_tracer

    spec = benchmark_spec()
    probe = LayerTracer()
    originals = {(cls, m): vars(cls)[m] for cls, m, _key in probe.targets}
    probe.install()
    assert all(vars(cls)[m] is not f for (cls, m), f in originals.items()), "not wrapped"
    probe.restore()
    assert all(vars(cls)[m] is f for (cls, m), f in originals.items()), "not restored"
    with open(os.devnull, "w") as null:
        for name in ("cluster_waves", "profile_mesh", "open_arrivals", "surge_replay"):
            for trace in (False, True):
                result = execute(name, seed=1, seconds=0.0, trace=trace, scale=0.05, out=null)
                declared = spec["per_layer"] if trace else spec["end_to_end"]
                missing = {e["name"] for e in declared} - set(result["metrics"])
                assert not missing, f"{name}: metrics missing {sorted(missing)}"
                assert result["correct"], f"{name} trace={int(trace)} failed its checks"
                assert all(vars(cls)[m] is f for (cls, m), f in originals.items()), (
                    f"{name}: wrappers left installed"
                )
                assert isinstance(get_tracer(), NullTracer), f"{name}: tracer replaced"
                print(f"self-test {name} trace={int(trace)} ok")
    print("self-test ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "cluster_waves", "profile_mesh", "open_arrivals", "surge_replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order feeds placement ties, so a fixed hash seed
        # is what makes dispositions a function of --seed alone.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print("perfbench: imported a repro package from outside the checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    execute(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
