#!/usr/bin/env python3
"""hxproof benchmark: one workload, one seed, one thread.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the repository root. The run is a sequence of passes over the
workload's input pool, for --seconds of wall time and at least MIN_PASSES
passes, each in a fresh Python process started only after the previous one
has ended, so no cache inside hxproof carries over from one pass to the
next: every pass sees each input for the first time. Times are rescaled to
a nominal host speed (hostspeed.py), and an item's latency is its median
over the passes. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it adds one traced pass and prints the per-layer metrics and the
tracing overhead. Informational lines (the tail percentile, the figures as
measured, the pass count, digests) come first; the last line is one JSON
object. See README.md next to this file.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

perf = time.perf_counter
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
WALL_CAP_S = 100        # no pass starts after this; a run ends within 180 s
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("decide", "prove-emit", "graph-query", "cutfree")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class NullTracer:
    """The call-site hooks when tracing is off: call through, count nothing."""

    op = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, amount=1):
        pass


NULL = NullTracer()


# ---------------------------------------------------------------------------
# One pass (runs in its own process)
# ---------------------------------------------------------------------------

def run_op(wl, state, idx, tr):
    """One op on pool item idx; returns (output, exception, start, seconds)."""
    tr.op = idx
    t0 = perf()
    try:
        out, err = tr.call("op", wl.op, state, state.items[idx], tr), None
    except Exception as e:                              # op boundary
        out, err = None, e
    return out, err, t0, perf() - t0


def check(wl, state, tr, idx, out, err):
    """Verify one output, outside the timed interval: (ok, decided, verdict,
    error text or None)."""
    if err is None:
        try:
            ok, decided, verdict = wl.verify(state, state.items[idx], out, tr)
            return ok, decided, verdict, None
        except Exception as e:                          # verifier boundary
            err = e
    text = "".join(traceback.format_exception(type(err), err, err.__traceback__))
    return False, False, "raised", text


def one_pass(workload, seed, trace):
    """Set up, run every pool item once, verify; print one JSON record.

    The host's speed is sampled throughout (hostspeed.py). Untraced, each
    output is verified as soon as its op returns and then dropped, so peak
    memory reflects one op's output, not a pass's. Traced, the outputs are
    verified after the stand-ins are removed, so the checks themselves are
    not traced.
    """
    sys.path.insert(0, str(HERE))
    from hostspeed import HostClock
    with HostClock() as clock:
        t_import = perf()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        import_s = perf() - t_import
        wl = workloads.WORKLOADS[workload]
        t_setup = perf()
        state = wl.setup(ROOT, seed)
        setup_s = perf() - t_setup

        if trace:
            from spans import Tracer
            tr = Tracer()
            workloads.install(tr)
            try:
                outputs = [(idx, *run_op(wl, state, idx, tr))
                           for idx in state.order]
            finally:
                tr.unpatch()
            results = [(idx, t0, dt, check(wl, state, tr, idx, out, err))
                       for idx, out, err, t0, dt in outputs]
        else:
            tr, results = NULL, []
            for idx in state.order:
                out, err, t0, dt = run_op(wl, state, idx, NULL)
                results.append((idx, t0, dt, check(wl, state, NULL, idx, out, err)))
                del out
        run_ok = wl.run_checks(state) if wl.run_checks else True

    record = {
        "setup_s": clock.nominal(t_import, import_s) +
        clock.nominal(t_setup, setup_s),
        "raw_setup_s": import_s + setup_s,
        "host_ref_ms": clock.median_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "input_digest": state.input_digest,
        "order_digest": sha(repr(state.order)),
        "run_ok": run_ok,
        "items": len(state.items),
        # pool index -> [seconds at nominal host speed, seconds as measured,
        # ok, decided, verdict]
        "ops": {idx: [clock.nominal(t0, dt), dt, ok, decided, verdict]
                for idx, t0, dt, (ok, decided, verdict, _) in results},
        "first_error": next((e for *_, (_, _, _, e) in results if e), None),
    }
    if trace:
        span_file = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
        span_file.parent.mkdir(exist_ok=True)
        tr.write(span_file)
        record["spans"] = len(tr.spans)
        record["span_file"] = str(span_file.relative_to(ROOT))
        record["layers"] = {
            name: {"value": value, "unit": workloads.LAYER_METRICS[name]}
            for name, value in workloads.layer_values(tr, state).items()}
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# The run: passes in sequence, aggregated
# ---------------------------------------------------------------------------

def spawn_pass(args, trace):
    """Run one pass in a fresh process and wait for it; its record or exit."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--one-pass",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: a pass of {args.workload} exited with "
                 f"code {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["ops"] = {int(k): v for k, v in record["ops"].items()}
    return record


class Passes:
    """Untraced passes over the pool, aggregated per pool item."""

    def __init__(self):
        self.records = []
        self.samples = {}            # pool index -> [(nominal s, measured s)]
        self.bad = set()             # pool indices that failed in some pass
        self.verdicts = {}           # pool index -> verdict of the first pass
        self.busy = 0.0              # summed nominal op seconds, all passes
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.run_ok = True

    def add(self, rec):
        first = self.records[0] if self.records else rec
        self.records.append(rec)
        self.run_ok &= rec["run_ok"] and all(
            rec[k] == first[k] for k in ("input_digest", "order_digest"))
        for idx, (nominal, measured, ok, decided, verdict) in rec["ops"].items():
            self.attempted += 1
            self.busy += nominal
            self.samples.setdefault(idx, []).append((nominal, measured))
            if ok:
                self.decided += decided
            else:
                self.failed += 1
                self.bad.add(idx)
                verdict = "failed " + verdict
            if self.verdicts.setdefault(idx, verdict) != verdict:
                self.failed += 1       # a later pass disagrees with the first

    def item_latencies(self, which=0):
        """Each item's median over the passes, for items that never failed:
        at the nominal host speed (which=0) or as measured (which=1)."""
        return [statistics.median(s[which] for s in v)
                for idx, v in self.samples.items() if idx not in self.bad]

    @property
    def mean_ops_per_s(self):
        """Successful ops per nominal second of op time over all passes."""
        return (self.attempted - self.failed) / self.busy

    def median_of(self, key):
        return statistics.median(r[key] for r in self.records)

    @property
    def first_error(self):
        return next((r["first_error"] for r in self.records
                     if r["first_error"]), None)


def summary(latencies):
    """ops_per_s, p50, tail, tail percentile, samples beyond the tail."""
    latencies = latencies or [0.0]                      # every item failed
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    return (n / sum(lat) if sum(lat) else 0.0, statistics.median(lat),
            lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "hxproof" / "__init__.py").is_file() or \
            not (ROOT / "golden").is_dir():
        sys.exit(f"perfbench: no hxproof sources under {ROOT}; "
                 "run from a full checkout")
    if args.workload not in WORKLOAD_NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOAD_NAMES)}")
    if args.one_pass:
        return one_pass(args.workload, args.seed, args.trace)

    start = perf()
    passes = Passes()
    while True:
        passes.add(spawn_pass(args, 0))
        elapsed = perf() - start
        if len(passes.records) >= MIN_PASSES and elapsed >= args.seconds \
                or elapsed > WALL_CAP_S:
            break

    setup_s = passes.median_of("setup_s")
    attempted, failed = passes.attempted, passes.failed
    first_error = passes.first_error
    if args.trace:
        traced = spawn_pass(args, 1)
        traced_ops = traced["ops"].values()
        traced_rate = sum(ok for _, _, ok, _, _ in traced_ops) / \
            sum(nominal for nominal, *_ in traced_ops)
        untraced_rate = passes.mean_ops_per_s
        metrics = dict(traced["layers"])
        metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_share"] = {
            "value": 1.0 - traced_rate / untraced_rate, "unit": "share"}
        print(f"traced one pass: {len(traced_ops)} ops, {traced['spans']} spans "
              f"written to {traced['span_file']}")
        attempted += len(traced_ops)
        failed += sum(not ok or verdict != passes.verdicts[idx]
                      for idx, (_, _, ok, _, verdict) in traced["ops"].items())
        passes.run_ok &= traced["run_ok"]
        first_error = first_error or traced["first_error"]
    else:
        ops_per_s, p50, tail_s, tail_pct, beyond = \
            summary(passes.item_latencies())
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "decided_share": {"value": passes.decided / passes.attempted,
                              "unit": "share"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": passes.median_of("peak_rss_mb"),
                            "unit": "MB"},
        }
        raw_ops, raw_p50, raw_tail, *_ = summary(passes.item_latencies(1))
        print(f"op_tail_ms is p{tail_pct:.2f} with {beyond} samples beyond it "
              f"({len(passes.item_latencies())} samples, each an item's median "
              f"over {len(passes.records)} passes)")
        print(f"as measured, before rescaling to the nominal host speed: "
              f"ops_per_s={raw_ops:.4g} op_p50_ms={1e3 * raw_p50:.4g} "
              f"op_tail_ms={1e3 * raw_tail:.4g} "
              f"setup_s={passes.median_of('raw_setup_s'):.4g}; reference "
              f"median ms per pass {['%.3f' % r['host_ref_ms'] for r in passes.records]}")

    first = passes.records[0]
    print(f"workload={args.workload} seed={args.seed} "
          f"passes={len(passes.records)} pool={first['items']} "
          f"decided={passes.decided}/{passes.attempted} "
          f"setup_s={['%.3f' % r['setup_s'] for r in passes.records]} "
          f"wall_s={perf() - start:.1f}")
    print(f"input_digest={first['input_digest']} "
          f"order_digest={first['order_digest']} "
          f"verdict_digest={sha(repr(sorted(passes.verdicts.items())))}")
    if not passes.run_ok:
        print("whole-run check failed (golden re-encoding, worked example, "
              "or passes that saw different inputs)")
    if first_error:
        print(first_error, file=sys.stderr)
    result = {"correct": bool(passes.run_ok and failed == 0),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
