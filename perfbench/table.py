#!/usr/bin/env python3
"""Renders the per-layer table from traced records (perfbench --trace 1
--out <file>), one column per workload, as Markdown on standard output.

    python3 perfbench/table.py rec-tumbling-late.json rec-sliding-ckpt.json ...

Run from the repository root (the metric order and units come from
BENCHMARK.json). Also prints the tumbling-late ns/event decomposition:
the replayed and toggled layers plus the coordinator residual against
the measured ns/event.
"""
import json
import sys


def main(paths):
    bench = json.load(open("BENCHMARK.json"))
    recs = [json.load(open(p)) for p in paths]
    for r in recs:
        if not r["trace"]:
            sys.exit(f"{r['workload']}: not a traced record")
    hosts = {json.dumps({k: v for k, v in r["host"].items() if k not in ("commit", "clock_pair_ns")}, sort_keys=True) for r in recs}
    if len(hosts) != 1:
        sys.exit("records come from different hosts")
    h = recs[0]["host"]
    print(f"Host: {h['cpu_model']}, nproc {h['nproc']}, GOMAXPROCS {h['gomaxprocs']}, {h['go_version']}, "
          f"time.Now pair {h['clock_pair_ns']:.0f} ns. One traced run per workload, "
          f"seed {recs[0]['seed']}, --seconds {recs[0]['seconds']}.\n")
    print("| metric | unit | " + " | ".join(r["workload"] for r in recs) + " |")
    print("|---|---|" + "---:|" * len(recs))
    for m in bench["per_layer"]:
        cells = [fmt(r["result"]["metrics"][m["name"]]["value"]) for r in recs]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    for r in recs:
        if r["workload"] == "tumbling-late":
            decompose(r)


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    return f"{v:.4g}"


def decompose(rec):
    m = rec["result"]["metrics"]
    v = lambda k: m[k]["value"]
    run = v("run.ns_per_event")
    parts = [
        ("datagen: replay of Source.Next", v("datagen.ns_per_event"), "datagen"),
        ("delay model: replay of DelayModel.Delay", v("stream.delay.ns_per_event"), "stream.queue"),
        ("arrival heap: delay-off toggle less the delay replay", v("stream.queue.ns_per_event"), "stream.queue"),
        ("DDSketch insert: replay", v("ddsketch.insert_ns"), "sketch"),
        ("window queries: span median x windows per event", rec["extra"]["window_query_ns_per_event"], "sketch"),
        ("coordinator: the residual", v("stream.coord.ns_per_event"), "stream.coord"),
    ]
    print("\ntumbling-late, wall ns per generated event. The last column is an")
    print("independent view: the layer's CPU-profile share times the measured ns/event")
    print("(delay and heap share the stream.queue layer; GC, obs and other are not in")
    print("the replay rows).\n")
    print("| part | replay/toggle ns | profile layer | profile ns |")
    print("|---|---:|---|---:|")
    total = 0.0
    for name, ns, layer in parts:
        total += ns
        prof = v(layer + ".cpu_share") * run
        print(f"| {name} | {ns:.1f} | {layer} | {prof:.1f} |")
    print(f"| **sum** | **{total:.1f}** | | |")
    print(f"| measured run.ns_per_event | {run:.1f} | | |")
    rest = ["obs", "harness", "runtime.gc", "other"]
    print("\nProfile shares outside the replay rows: " + ", ".join(
        f"{l} {v((l + '.cpu_share') if l != 'runtime.gc' else 'runtime.gc_cpu_share'):.3f}" for l in rest))


if __name__ == "__main__":
    main(sys.argv[1:])
