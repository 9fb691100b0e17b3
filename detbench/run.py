#!/usr/bin/env python3
"""Seeded benchmark of BigFoot race-detector run time.

Run from the root of a checkout:

    python3 detbench/run.py --workload arrays --seed 1 --seconds 10 --trace 0

The script builds the detbench runner (detbench.cpp) and the BigFoot
libraries it links from the checkout's own sources with CMake, into
$CARGO_TARGET_DIR (default .bench_build). It writes the workload's BFJ
program for the seed, has the runner run it for the given number of
seconds, checks every configuration's output and race reports against
values computed here, and prints one JSON object as the last line of
stdout.

--trace 0 reports the end-to-end metrics: the uninstrumented run's time,
the slowdown over it of the program under FastTrack and under BigFoot, the
latter detecting inline and on two threaded lanes (the paper's Table 1),
and the set-up time (parse plus both check placements).
--trace 1 reports the per-layer ledger instead, from a run that also times
each layer on its own, and keeps that run's spans next to the generated
program. Every time is the fastest sample of its leg over the run (best of
N, as the repository's own harness reports); every slowdown is the median
over rounds of the two legs' times in the same round.

Each program is race free except for one planted unsynchronized counter,
Tally.racy, which both detectors must report, and nothing else.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = 4
BUILD_TIMEOUT_S = 840
# Set-up, warm-up and the last round run past --seconds.
RUN_SLACK_S = 120


class BenchError(Exception):
    pass


def fill(template, **values):
    """Replaces each @NAME@ in a BFJ template (BFJ is full of braces, so
    str.format does not fit)."""
    for name, value in values.items():
        template = template.replace(f"@{name}@", str(value))
    return template


def fork_join(cls, args):
    """Main-thread BFJ that forks WORKERS instances of cls running
    run(args..., id, tally) on slice id of [0, n) and joins them all."""
    lines = [f"  w{w} = new {cls};" for w in range(1, WORKERS + 1)]
    lines.append(f"  s = n / {WORKERS};")
    for w in range(1, WORKERS + 1):
        lo = f"{w - 1} * s"
        hi = "n" if w == WORKERS else f"{w} * s"
        lines.append(f"  fork t{w} = w{w}.run({args}, {lo}, {hi}, {w}, tally);")
    lines += [f"  join t{w};" for w in range(1, WORKERS + 1)]
    for w in range(1, WORKERS + 1):
        lines += [f"  v = w{w}.sum;", "  print v;"]
    return "\n".join(lines)


# --- arrays ------------------------------------------------------------------

ARRAYS = """
class Tally {
  fields racy;
}
class Kernel {
  fields sum;
  method run(src, dst, idx, g, bar, lo, hi, id, tally) {
    it = 0;
    while (it < @ITERS@) {
      i = lo;
      while (i < hi) {
        v = src[i];
        dst[i] = (v * 3 + it + id) % 1009;
        i = i + 1;
      }
      await bar;
      i = lo;
      while (i < hi) {
        j = idx[i];
        w = dst[j];
        src[i] = (w + i) % 1009;
        i = i + 1;
      }
      await bar;
      it = it + 1;
    }
    sweep = 0;
    while (sweep < @SWEEPS@) {
      c = 0;
      while (c < 2) {
        i = lo + 1 + c;
        while (i <= hi) {
          x = g[i - 1];
          y = g[i + 1];
          g[i] = (x + y + sweep) % 1009;
          i = i + 2;
        }
        await bar;
        c = c + 1;
      }
      sweep = sweep + 1;
    }
    s = 0;
    i = lo;
    while (i < hi) {
      v = src[i];
      w = dst[i];
      x = g[i + 1];
      s = (s * 31 + v * 7 + w + x) % 1000003;
      i = i + 1;
    }
    this.sum = s;
    r = tally.racy;
    tally.racy = r + 1;
  }
}
thread {
  n = @N@;
  src = new_array(n);
  dst = new_array(n);
  idx = new_array(n);
  g = new_array(n + 2);
  i = 0;
  while (i < n) {
    src[i] = (i * @A@ + @B@) % 1009;
    idx[i] = (i * @P@ + @Q@) % n;
    i = i + 1;
  }
  i = 0;
  while (i < n + 2) {
    g[i] = (i * @G@) % 1009;
    i = i + 1;
  }
  bar = new_barrier(@WORKERS@);
  tally = new Tally;
@FORK_JOIN@
}
"""


def arrays(seed):
    """Shared arrays under barriers: each worker sweeps its own block,
    gathers through an index array from every block, then runs a red-black
    stencil. StaticBF turns the sweeps and the stencil into range checks;
    the gathers stay one check per access."""
    rng = random.Random(seed)
    n, iters, sweeps = 16384, 8, 6
    a, b = rng.randrange(1, 1009), rng.randrange(1009)
    # A fixed odd stride keeps the gather's access pattern, and so its
    # cost, the same for every seed; the seed only rotates it.
    p, q = 4099, rng.randrange(n)
    g_mul = rng.randrange(1, 1009)
    source = fill(ARRAYS, N=n, ITERS=iters, SWEEPS=sweeps, A=a, B=b, P=p,
                  Q=q, G=g_mul, WORKERS=WORKERS,
                  FORK_JOIN=fork_join("Kernel", "src, dst, idx, g, bar"))

    block = n // WORKERS
    src = [(i * a + b) % 1009 for i in range(n)]
    idx = [(i * p + q) % n for i in range(n)]
    dst = [0] * n
    for it in range(iters):
        dst = [(src[i] * 3 + it + i // block + 1) % 1009 for i in range(n)]
        src = [(dst[idx[i]] + i) % 1009 for i in range(n)]
    g = [(i * g_mul) % 1009 for i in range(n + 2)]
    for sweep in range(sweeps):
        for c in (0, 1):
            for i in range(1 + c, n + 1, 2):
                g[i] = (g[i - 1] + g[i + 1] + sweep) % 1009
    sums = []
    for w in range(WORKERS):
        s = 0
        for i in range(w * block, (w + 1) * block):
            s = (s * 31 + src[i] * 7 + dst[i] + g[i + 1]) % 1000003
        sums.append(s)
    return source, sums


# --- objects -----------------------------------------------------------------

OBJECTS = """
class Tally {
  fields racy;
}
class Body {
  fields x, y, vx, vy;
}
class Node {
  fields val, next;
}
class Acc {
  fields total, count;
}
class Sim {
  fields sum;
  method run(bodies, head, bar, lo, hi, id, tally) {
    acc = new Acc;
    it = 0;
    while (it < @ITERS@) {
      i = lo;
      while (i < hi) {
        b = bodies[i];
        x = b.x;
        y = b.y;
        vx = b.vx;
        vy = b.vy;
        b.x = (x + vx) % 10007;
        b.y = (y + vy + it) % 10007;
        i = i + 1;
      }
      await bar;
      i = 0;
      while (i < @NB@) {
        b = bodies[i];
        x = b.x;
        y = b.y;
        t = acc.total;
        acc.total = (t + x * id + y) % 1000003;
        c = acc.count;
        acc.count = c + 1;
        i = i + 1;
      }
      await bar;
      it = it + 1;
    }
    p = head;
    s = 0;
    while (p != null) {
      v = p.val;
      s = (s * 7 + v) % 1000003;
      p = p.next;
    }
    t = acc.total;
    c = acc.count;
    this.sum = (t + s + c) % 1000003;
    r = tally.racy;
    tally.racy = r + 1;
  }
}
thread {
  n = @NB@;
  bodies = new_array(n);
  i = 0;
  while (i < n) {
    b = new Body;
    b.x = (i * @X1@ + @X2@) % 10007;
    b.y = (i * @Y1@ + @Y2@) % 10007;
    b.vx = (i * @V1@) % 97;
    b.vy = (i * @V2@) % 89;
    bodies[i] = b;
    i = i + 1;
  }
  head = null;
  k = 0;
  while (k < @LEN@) {
    nd = new Node;
    nd.val = (k * @L1@ + @L2@) % 1009;
    nd.next = head;
    head = nd;
    k = k + 1;
  }
  bar = new_barrier(@WORKERS@);
  tally = new Tally;
@FORK_JOIN@
}
"""


def objects(seed):
    """Objects with field groups: each worker moves its own bodies (a
    four-field group), then every worker scans all bodies' positions
    (read-shared) into a private accumulator, and finally chases a shared
    read-only list. Exercises field proxies and per-object shadow slots."""
    rng = random.Random(seed)
    nb, iters, length = 2048, 20, 8192
    x1, x2, y1, y2 = (rng.randrange(1, 10007) for _ in range(4))
    v1, v2 = rng.randrange(1, 97), rng.randrange(1, 89)
    l1, l2 = rng.randrange(1, 1009), rng.randrange(1009)
    source = fill(OBJECTS, NB=nb, ITERS=iters, LEN=length, X1=x1, X2=x2,
                  Y1=y1, Y2=y2, V1=v1, V2=v2, L1=l1, L2=l2, WORKERS=WORKERS,
                  FORK_JOIN=fork_join("Sim", "bodies, head, bar"))

    x = [(i * x1 + x2) % 10007 for i in range(nb)]
    y = [(i * y1 + y2) % 10007 for i in range(nb)]
    vx = [(i * v1) % 97 for i in range(nb)]
    vy = [(i * v2) % 89 for i in range(nb)]
    totals = [0] * WORKERS
    for it in range(iters):
        x = [(x[i] + vx[i]) % 10007 for i in range(nb)]
        y = [(y[i] + vy[i] + it) % 10007 for i in range(nb)]
        for w in range(WORKERS):
            t = totals[w]
            for i in range(nb):
                t = (t + x[i] * (w + 1) + y[i]) % 1000003
            totals[w] = t
    chase = 0
    for k in reversed(range(length)):
        chase = (chase * 7 + (k * l1 + l2) % 1009) % 1000003
    sums = [(totals[w] + chase + iters * nb) % 1000003 for w in range(WORKERS)]
    return source, sums


# --- sync --------------------------------------------------------------------

SYNC = """
class Tally {
  fields racy;
}
class Counter {
  fields hits, bytes;
}
class Ledger {
  fields total, ops;
}
class Flag {
  fields pad;
  volatile fields seq;
}
class Worker {
  fields seen;
  method run(ctr, la, led, lb, flag, sizes, bar, id, tally) {
    seen = 0;
    r = 0;
    while (r < @ROUNDS@) {
      k = (r * 7 + id * 13) % @NSZ@;
      sz = sizes[k];
      acq(la);
      h = ctr.hits;
      ctr.hits = h + 1;
      b = ctr.bytes;
      ctr.bytes = b + sz;
      rel(la);
      if (r % 4 == 0) {
        acq(lb);
        t = led.total;
        led.total = t + sz * id;
        o = led.ops;
        led.ops = o + 1;
        rel(lb);
      }
      flag.seq = r + id;
      q = flag.seq;
      seen = seen + q % 2;
      if (r % 64 == 63) {
        await bar;
      }
      r = r + 1;
    }
    this.seen = seen;
    x = tally.racy;
    tally.racy = x + 1;
  }
}
thread {
  sizes = new_array(@NSZ@);
  i = 0;
  while (i < @NSZ@) {
    sizes[i] = (i * @S1@ + @S2@) % 1500;
    i = i + 1;
  }
  ctr = new Counter;
  la = new Counter;
  led = new Ledger;
  lb = new Ledger;
  flag = new Flag;
  tally = new Tally;
  wave = 0;
  while (wave < @WAVES@) {
    bar = new_barrier(@WORKERS@);
@FORK_JOIN@
    wave = wave + 1;
  }
  h = ctr.hits;
  print h;
  b = ctr.bytes;
  print b;
  t = led.total;
  print t;
  o = led.ops;
  print o;
}
"""


def sync(seed):
    """Synchronization-dominated: workers bump lock-guarded counters, hand
    a volatile back and forth and meet at barriers, in two fork/join waves.
    Exercises vector-clock joins and check-filter invalidation; StaticBF
    has little to move."""
    rng = random.Random(seed)
    rounds, nsz, waves = 10240, 1024, 2
    s1, s2 = rng.randrange(1, 1500), rng.randrange(1500)
    ids = range(1, WORKERS + 1)
    workers = "\n".join(f"    w{w} = new Worker;" for w in ids)
    forks = "\n".join(f"    fork t{w} = w{w}.run(ctr, la, led, lb, flag, "
                      f"sizes, bar, {w}, tally);" for w in ids)
    joins = "\n".join(f"    join t{w};" for w in ids)
    source = fill(SYNC, ROUNDS=rounds, NSZ=nsz, WAVES=waves, S1=s1, S2=s2,
                  WORKERS=WORKERS, FORK_JOIN="\n".join([workers, forks, joins]))

    sizes = [(i * s1 + s2) % 1500 for i in range(nsz)]
    nbytes = total = ops = 0
    for wid in range(1, WORKERS + 1):
        for r in range(rounds):
            sz = sizes[(r * 7 + wid * 13) % nsz]
            nbytes += sz
            if r % 4 == 0:
                total += sz * wid
                ops += 1
    return source, [waves * WORKERS * rounds, waves * nbytes, waves * total,
                    waves * ops]


WORKLOADS = {"arrays": arrays, "objects": objects, "sync": sync}


# --- running -----------------------------------------------------------------

def run_child(cmd, timeout, capture=False):
    """Runs cmd in a process group of its own and waits for it; kills the
    whole group, a build's compilers too, if it overruns or this script is
    interrupted."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr.fileno(),
        stderr=sys.stderr.fileno(), preexec_fn=os.setsid, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited with status "
                         f"{proc.returncode}")
    return out


def build(build_dir):
    """Configures the build tree if needed, brings the runner up to date,
    and returns its path."""
    runner = os.path.join(build_dir, "detbench")
    if not os.path.exists(runner):
        run_child(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = max(1, min(4, os.cpu_count() or 1))
    run_child(["cmake", "--build", build_dir, "--target", "detbench",
               "-j", str(jobs)], BUILD_TIMEOUT_S)
    return runner


def check(raw, expected):
    """Every problem with the runner's reference outcomes and run counts."""
    problems = []
    outcomes = raw["outcomes"]
    expected = [str(v) for v in expected]
    for leg, o in outcomes.items():
        if not o["ok"]:
            problems.append(f"{leg}: failed: {o['error']}")
        elif leg in ("base", "fasttrack", "bigfoot", "lanes", "emit",
                     "async") and \
                o["output"] != expected:
            problems.append(f"{leg}: printed {o['output']}, "
                            f"expected {expected}")
    races = outcomes["bigfoot"]["races"]
    if len(races) != 1 or not races[0].endswith(".racy"):
        problems.append(f"bigfoot: reported {races}, expected one race on "
                        "Tally.racy")
    for leg in ("fasttrack", "lanes", "detector", "nofilter", "async"):
        if leg in outcomes and outcomes[leg]["races"] != races:
            problems.append(f"{leg}: reported {outcomes[leg]['races']}, "
                            f"bigfoot {races}")
    if raw["failed"]:
        problems.append(f"{raw['failed']} timed run(s) differed from their "
                        "leg's first run")
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(samples):
    """Each leg's fastest sample. A part a leg's runs time themselves
    (lanes.producer) is taken from the run that gave the leg's fastest
    sample, so the parts and the whole belong to one run."""
    t = {}
    for name, values in samples.items():
        whole = samples[name.split(".")[0]]
        t[name] = values[min(range(len(whole)), key=whole.__getitem__)]
    return t


def slowdown(samples, leg):
    """The median, over rounds, of leg's time over the base leg's time in
    the same round."""
    return statistics.median(
        t / b for t, b in zip(samples[leg], samples["base"]))


def end_to_end(raw):
    # The fastest sample estimates a leg's time on an otherwise idle
    # machine. On a shared host, neighbours slow whole stretches of seconds
    # by up to 1.6x: over six 30-second runs of one workload that moved the
    # median sample by 10% from run to run, the 5th percentile by 4% and the
    # fastest sample by 2% (4-core x86 KVM guest). Slower drifts, over
    # minutes, still move every leg's fastest sample by about 10% from run
    # to run. Two legs of one round run within a second of each other, so
    # the per-round ratio cancels that drift: over ten seeds the median of
    # per-round ratios spread 2-4% where the ratio of fastest samples spread
    # 8-12%. The slowdowns alone would read a change to the VM backwards
    # (a slower VM lowers every slowdown), so the base run's own time stands
    # next to them. Set-up time is the fastest of the run's set-ups too:
    # their median moved between 0.07 and 0.10 s from run to run on arrays
    # (19% spread over ten seeds) where the fastest spread 6-13%.
    s = raw["samples"]
    return {
        "base_ms": metric(min(s["base"]) * 1e3, "ms"),
        "bigfoot_slowdown": metric(slowdown(s, "bigfoot"), "x"),
        "fasttrack_slowdown": metric(slowdown(s, "fasttrack"), "x"),
        "lanes_slowdown": metric(slowdown(s, "lanes"), "x"),
        "setup_s": metric(min(s["setup"]), "s"),
    }


def ledger(raw):
    """The per-layer numbers of one traced run. Times are the fastest
    sample of the layer's own leg. The emission layer is the emit leg minus
    the base leg, spread over the events it produced. The transport layer
    is the lanes leg's VM-thread time minus the emit leg, spread over the
    same events: routing batches into lane rings, applying sync edges to
    the sync-clock table, starting the lanes and waiting on full rings.
    Drain and merge is the rest of the lanes leg after the VM thread
    stops."""
    t = fastest(raw["samples"])
    c = raw["counts"]
    events = c["events_bigfoot"]
    probes = c["filter_hits"] + c["filter_misses"]
    return {
        "parse_ms": metric(t["parse"] * 1e3, "ms"),
        "staticbf_ms": metric(t["staticbf"] * 1e3, "ms"),
        "staticbf_us_per_method": metric(
            t["staticbf"] * 1e6 / c["methods"], "us"),
        "checks_placed_bigfoot": metric(c["checks_placed_bigfoot"], "count"),
        "vm_ms": metric(t["base"] * 1e3, "ms"),
        "vm_ns_per_stmt": metric(t["base"] * 1e9 / c["statements"], "ns"),
        "emit_ms": metric(t["emit"] * 1e3, "ms"),
        "emit_ns_per_event": metric(
            (t["emit"] - t["base"]) * 1e9 / events, "ns"),
        "detector_ms": metric(t["detector"] * 1e3, "ms"),
        "detector_ns_per_event": metric(t["detector"] * 1e9 / events, "ns"),
        "nofilter_detector_ms": metric(t["nofilter"] * 1e3, "ms"),
        "filter_hit_pct": metric(
            100.0 * c["filter_hits"] / probes if probes else 0.0, "%"),
        "bigfoot_inline_ms": metric(t["bigfoot"] * 1e3, "ms"),
        "fasttrack_inline_ms": metric(t["fasttrack"] * 1e3, "ms"),
        "async_ms": metric(t["async"] * 1e3, "ms"),
        "lanes_ms": metric(t["lanes"] * 1e3, "ms"),
        "lanes_minus_inline_ms": metric(
            (t["lanes"] - t["bigfoot"]) * 1e3, "ms"),
        "lanes_producer_ms": metric(t["lanes.producer"] * 1e3, "ms"),
        "transport_ns_per_event": metric(
            (t["lanes.producer"] - t["emit"]) * 1e9 / events, "ns"),
        "lane_busy_ms": metric(t["lanes.busiest"] * 1e3, "ms"),
        "drain_merge_ms": metric(
            (t["lanes"] - t["lanes.producer"]) * 1e3, "ms"),
        "lane_batches": metric(c["lane_batches"], "count"),
        "lane_stalls": metric(c["lane_stalls"], "count"),
        "sync_table_publishes": metric(c["sync_table_publishes"], "count"),
        "sync_table_reads": metric(c["sync_table_reads"], "count"),
        "sync_table_kb": metric(c["sync_table_bytes"] / 1024.0, "KiB"),
        "check_ratio_bigfoot_pct": metric(
            100.0 * c["checks_bigfoot"] / c["accesses"], "%"),
        "check_ratio_fasttrack_pct": metric(
            100.0 * c["checks_fasttrack"] / c["accesses"], "%"),
        "events_bigfoot": metric(events, "count"),
        "sync_events_bigfoot": metric(c["sync_events_bigfoot"], "count"),
        "shadow_ops_bigfoot": metric(c["shadow_ops_bigfoot"], "count"),
        "shadow_ops_fasttrack": metric(c["shadow_ops_fasttrack"], "count"),
        "peak_shadow_kb_bigfoot": metric(
            c["peak_shadow_bytes_bigfoot"] / 1024.0, "KiB"),
    }


def bench(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    runner = build(build_dir)
    source, expected = WORKLOADS[args.workload](args.seed)
    runs = os.path.join(build_dir, "detbench-runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-{args.seed}")
    with open(stem + ".bfj", "w") as f:
        f.write(source)
    cmd = [runner, f"--program={stem}.bfj", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--spans={stem}.spans.json")
    raw = json.loads(run_child(cmd, args.seconds + RUN_SLACK_S, capture=True))
    problems = check(raw, expected)
    for problem in problems:
        print(f"detbench: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": ledger(raw) if args.trace else end_to_end(raw),
    }


def main():
    parser = argparse.ArgumentParser(
        description="Seeded benchmark of BigFoot race-detector run time.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = bench(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        print(f"detbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
