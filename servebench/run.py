#!/usr/bin/env python3
"""The repository benchmark: one served workload, measured end to end.

Usage (from the repository root)::

    python3 servebench/run.py --workload point --seed 1 --seconds 15 --trace 0

The workload's graph and requests come from ``--seed``.  The run
starts ``python -m repro serve`` as a separate process (several times,
to time set-up), drives seeded traffic at it over HTTP for
``--seconds``, checks every answer, and prints one metric per line
followed by a JSON summary as the last line of standard output.
``--trace 1`` runs the per-layer probes as well and reports the
per-layer metrics instead.  The exit code is non-zero on any wrong
answer or failed request.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("servebench: no src/repro under %s; run it from the root of"
             " a repository checkout" % ROOT)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from servebench import inputs, layers  # noqa: E402
from servebench.checker import Reference  # noqa: E402
from servebench.load import Generator, batch_body, query_body  # noqa: E402
from servebench.server import Server  # noqa: E402
from servebench.trace import Tracer  # noqa: E402

#: Servers started per run; ``setup_s`` is the median of their starts.
SETUP_LAUNCHES = 5
#: Offered rate of the ``point`` open loop, well below its capacity.
POINT_RATE = 100.0
#: Untimed warm-up before every timed phase.
WARMUP_S = 2.0
#: Share of a ``point`` run spent in the open loop; the rest is the
#: closed-loop capacity phase.
POINT_OPEN_SHARE = 0.5
#: Generous upper bounds on request rates, only to size the bodies
#: encoded before the clock starts (a run that uses them all up
#: simply ends early).
MAX_QUERY_RATE = 4000
MAX_BATCH_RATE = 20
#: Slices of a run whose median gives a latency or throughput figure.
SLICES = 10
#: Cold queries per layer in the traced run's ledger.
LEDGER = {"point": 300, "solve": 120, "sweep": 120}
#: Queries in the traced run's in-process batch probes.
BATCH_PROBE = {"point": 500, "solve": 240, "sweep": inputs.SWEEP_BATCH}
#: Hard stop, so a run always ends inside its time limit.
RUN_LIMIT_S = 170


def _alarm(_signum, _frame):
    raise TimeoutError("run exceeded %d s" % RUN_LIMIT_S)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def encode(workload, count):
    """Request bodies of the first ``count`` items of the stream."""
    if workload.name == "sweep":
        return [batch_body(batch) for batch in workload.requests(count)]
    return [query_body(*triple) for triple in workload.requests(count)]


def prepare(workload, workdir):
    """Write the graph file and its snapshot; return the serve args.

    ``sweep`` warm-starts the server from the snapshot (attach path);
    ``point`` and ``solve`` compile the text on start (compile path).
    The snapshot comes from ``repro snapshot`` in its own process.
    """
    graph_path = os.path.join(workdir, "graph.txt")
    with open(graph_path, "w") as handle:
        handle.write(workload.graph)
    snapshot_path = os.path.join(workdir, "graph.snap")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "repro", "snapshot", graph_path,
         snapshot_path],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        timeout=120,
    )
    if workload.name == "sweep":
        return graph_path, snapshot_path, ["--snapshot", "g=" + snapshot_path]
    return graph_path, snapshot_path, ["--graph", "g=" + graph_path]


def asked(workload, sample):
    """The ``(language, source, target)`` triples one sample asked."""
    item = workload[sample.index]
    return item if workload.name == "sweep" else [item]


def replies(workload, sample, count):
    """The ``count`` result records a sample got back (or its failure)."""
    if sample.status != 200:
        failure = {"error": "HTTP %d: %s" % (
            sample.status, sample.body[:200].decode(errors="replace"))}
        return [failure] * count
    reply = json.loads(sample.body)
    return reply["results"] if workload.name == "sweep" else [reply]


def check(reference, triples, records, wrong):
    """Failed answers among ``records``; wrong ones go to ``wrong``."""
    failed = 0
    for (lang, source, target), record in zip(triples, records):
        issues = reference.problems(record, lang, source, target)
        if issues:
            failed += 1
            if record.get("error") is None:
                wrong.append((lang, source, target, issues))
    return failed


def check_samples(workload, reference, samples, wrong):
    """Check every served answer; fills each sample's verdict fields.

    Returns every result record, in order.
    """
    triples = [t for s in samples for t in asked(workload, s)]
    reference.prefetch(triples)
    all_records = []
    for sample in samples:
        mine = asked(workload, sample)
        records = replies(workload, sample, len(mine))
        sample.queries = len(mine)
        sample.failed = check(reference, mine, records, wrong)
        all_records.extend(records)
    return all_records


def latencies_ms(samples, window_s):
    """Per request; a failed one counts as taking the whole window."""
    return [1000.0 * (window_s if s.failed else s.latency) for s in samples]


def answered_rate(samples):
    """Queries answered correctly per second over ``samples``."""
    span = max(s.done for s in samples) - min(s.sent for s in samples)
    return sum(s.queries - s.failed for s in samples) / span


def launch_servers(graph_args, workdir, keep):
    """Start ``SETUP_LAUNCHES`` servers; keep only the last ``keep``."""
    servers, setups = [], []
    try:
        for _ in range(SETUP_LAUNCHES):
            server = Server(ROOT, workdir, graph_args)
            servers.append(server)
            setups.append(server.setup_s)
            if len(servers) > keep:
                servers.pop(0).stop()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers, setups


def load_phase(workload, port, bodies, seconds, tracer=None):
    """The workload's traffic; returns ``(samples, notes)``.

    A warm-up of ``WARMUP_S`` (answers checked, never timed) comes
    first, so plan compiles and a cold process do not decide the tail.
    ``notes["main"]`` is the ``(start, stop)`` slice of the timed main
    phase.  With a tracer the main phase runs as four stretches,
    untraced, traced, traced, untraced, so tracing overhead is
    compared on the same server and request stream.
    """
    segments = 4 if tracer is not None else 1
    path = "/batch" if workload.name == "sweep" else "/query"
    conns = 1 if workload.name == "sweep" else 2
    samples, opened = [], 0

    def drive(traced, method, *args):
        nonlocal opened
        gen = Generator(port, path, bodies, conns, tracer if traced else None)
        part = getattr(gen, method)(*args)
        opened += gen.opened
        samples.extend(part)
        return part

    def traced(segment):
        return tracer is not None and segment in (1, 2)

    notes = {}
    if workload.name == "point":
        offsets = inputs.poisson_schedule(
            workload.seed, POINT_RATE, WARMUP_S + POINT_OPEN_SHARE * seconds)
        split = bisect.bisect(offsets, WARMUP_S)
        drive(False, "open_loop", 0, offsets[:split])
        start = len(samples)
        main = offsets[split:]
        per = math.ceil(len(main) / segments)
        for segment in range(segments):
            part = main[segment * per:(segment + 1) * per]
            drive(traced(segment), "open_loop", split + segment * per,
                  [due - part[0] for due in part])
        notes["main"] = (start, len(samples))
        late = [s.sent - s.due for s in samples[start:]]
        notes["late_ms_p99"] = 1000.0 * layers.percentile(
            late, layers.tail_percentile(len(late)))
        notes["late_ms_max"] = 1000.0 * max(late)
        drive(tracer is not None, "closed_loop", len(offsets),
              (1 - POINT_OPEN_SHARE) * seconds)
    else:
        first = max(s.index for s in drive(False, "closed_loop", 0,
                                           WARMUP_S)) + 1
        start = len(samples)
        for segment in range(segments):
            part = drive(traced(segment), "closed_loop", first,
                         seconds / segments)
            first = max(s.index for s in part) + 1
        notes["main"] = (start, len(samples))
    notes["connections_opened"] = opened
    return samples, notes


def sliced(values, stat, slices=SLICES, least=100):
    """Median of ``stat`` over consecutive slices of ``values``.

    A stall of the machine hits one or two slices of a run, not the
    median of ten.  Slices keep at least ``least`` values; fewer
    values make one slice.
    """
    count = max(1, min(slices, len(values) // least))
    return statistics.median(
        stat(values[k * len(values) // count:(k + 1) * len(values) // count])
        for k in range(count)
    )


def end_to_end(workload, samples, notes, setups, memory_mb, seconds):
    main = samples[slice(*notes["main"])]
    window = seconds * (POINT_OPEN_SHARE if workload.name == "point" else 1)
    latencies = latencies_ms(main, window)
    tail = layers.tail_percentile(len(latencies))
    # The tail is reported, not gated: on a small shared machine it
    # moves more between runs of the same code than any bound allows.
    print("latency tail (not gated): %d samples, p90 %.3f ms, p%.1f"
          " %.3f ms (the highest percentile with 10 samples beyond it)"
          % (len(latencies), layers.percentile(latencies, 90), tail,
             layers.percentile(latencies, tail)))
    capacity = main
    if workload.name == "point":
        print("open loop: %.0f q/s offered, generator late p99 %.3f ms,"
              " max %.3f ms" % (POINT_RATE, notes["late_ms_p99"],
                                notes["late_ms_max"]))
        capacity = samples[notes["main"][1]:]

    attempted = sum(s.queries for s in samples)
    failed = sum(s.failed for s in samples)
    return {
        "latency_p50_ms": (
            sliced(latencies, lambda v: layers.percentile(v, 50)), "ms"),
        "throughput_qps": (
            sliced(sorted(capacity, key=lambda s: s.done), answered_rate),
            "queries/s"),
        "answered_share": (1.0 - failed / attempted, "ratio"),
        "memory_mb": (memory_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def distinct_triples(workload, count):
    """The first ``count`` distinct queries of the workload's stream."""
    if workload.name == "sweep":
        return workload[0][:count]
    distinct, seen, index = [], set(), 0
    while len(distinct) < count:
        triple = workload[index]
        index += 1
        if triple not in seen:
            seen.add(triple)
            distinct.append(triple)
    return distinct


def traced_probes(workload, tracer, server, graph_path, snapshot_path,
                  workdir):
    """Set-up, ledger and batch probes, on a server the load never uses.

    Returns ``(metrics, triples, records)``; the served records of the
    ledger and the probe batch are checked with the load phase's.
    """
    metrics = layers.setup_layers(tracer, graph_path, snapshot_path,
                                  workdir, workload.languages)
    triples = distinct_triples(workload, LEDGER[workload.name])
    ledger_metrics, records = layers.ledger(tracer, server.port,
                                            snapshot_path, triples)
    metrics.update(ledger_metrics)
    if workload.name == "sweep":
        batch = workload[0]
    else:
        batch = workload.requests(BATCH_PROBE[workload.name])
    shard_metrics, batch_records = layers.batch_shard(tracer, server, batch)
    metrics.update(shard_metrics)
    metrics.update(layers.batch_layers(tracer, snapshot_path, batch))
    return metrics, triples + list(batch), records + batch_records


def traced_load(workload, samples, records, notes, stats):
    """Per-layer metrics read off the traced run's load phase."""
    main = samples[slice(*notes["main"])]
    traced = [s.latency for s in main if s.traced]
    plain = [s.latency for s in main if not s.traced]
    wire = sum(s.request_bytes + len(s.body) for s in samples)
    repeats = 0
    if workload.name != "sweep":
        seen = set(workload.requests(main[0].index))
        for sample in main:
            triple = workload[sample.index]
            repeats += triple in seen
            seen.add(triple)
    metrics = layers.served_layers(records, stats)
    metrics.update({
        "service.server.connections_opened": (
            notes["connections_opened"], "count"),
        "service.protocol.bytes_per_query": (wire / len(records), "bytes"),
        "bench.generator.late_ms_p99": (notes.get("late_ms_p99", 0.0), "ms"),
        "bench.workload.repeat_share": (repeats / len(main), "ratio"),
        "bench.trace.overhead_share": (
            statistics.median(traced) / statistics.median(plain) - 1.0,
            "ratio"),
    })
    return metrics


def run(args, workdir):
    workload = inputs.WORKLOADS[args.workload](args.seed)
    graph_path, snapshot_path, graph_args = prepare(workload, workdir)
    rate = MAX_BATCH_RATE if workload.name == "sweep" else MAX_QUERY_RATE
    bodies = encode(workload, math.ceil(rate * args.seconds))
    tracer = Tracer() if args.trace else None
    # The traced run keeps a second server for its probes, so the load
    # phase still meets a server with cold caches.
    servers, setups = launch_servers(graph_args, workdir,
                                     keep=2 if args.trace else 1)
    metrics, probed, probe_records = {}, [], []
    try:
        if args.trace:
            metrics, probed, probe_records = traced_probes(
                workload, tracer, servers[0], graph_path, snapshot_path,
                workdir)
            servers.pop(0).stop()
        samples, notes = load_phase(workload, servers[0].port, bodies,
                                    args.seconds, tracer)
        memory_mb = servers[0].memory_mb()
        stats = servers[0].get("/stats")
    finally:
        for server in servers:
            server.stop()
    reference = Reference(workload.graph)
    wrong = []
    records = check_samples(workload, reference, samples, wrong)
    failed = sum(s.failed for s in samples)
    failed += check(reference, probed, probe_records, wrong)
    attempted = len(records) + len(probe_records)
    print("error_share = %.6f ratio (%d of %d queries failed)"
          % (failed / attempted, failed, attempted))
    for lang, source, target, issues in wrong[:10]:
        print("WRONG %s %s->%s: %s" % (lang, source, target,
                                       "; ".join(issues)), file=sys.stderr)
    if args.trace:
        metrics.update(traced_load(workload, samples, records, notes,
                                   stats))
        out_dir = os.path.join(ROOT, "servebench", "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-%d.json"
                                 % (workload.name, args.seed)))
        for name, seconds in sorted(tracer.self_times().items()):
            print("span self time %-36s %.4f s" % (name, seconds))
    else:
        metrics = end_to_end(workload, samples, notes, setups, memory_mb,
                             args.seconds)
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_LIMIT_S)
    workdir = os.path.join(ROOT, "servebench", "_work", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        summary = run(args, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
