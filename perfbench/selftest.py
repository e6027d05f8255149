"""``python -m perfbench run --selftest``: the benchmark checks itself.

Every workload runs two blocks and must pass its oracle; then each oracle
is shown able to fail — a stale rating, a corrupted expected count, an
emission that does not compile — because an oracle that cannot fail
checks nothing.
"""

from __future__ import annotations

from array import array

from . import load_spec, stats
from .workloads import WORKLOADS, Workload, stub_io


def failures(wl: Workload, blocks: int = 2) -> int:
    lat = array("d", [0.0]) * wl.block_ops
    kinds = bytearray(wl.block_ops)
    failed = 0
    for _ in range(blocks):
        block = wl.next_block()
        outputs, _ = wl.run_block(block, lat, kinds, 0)
        failed += wl.check_block(block, outputs)
    return failed


def selftest(seed: int = 17) -> int:
    stats.pin_to_first_cpu()
    verdicts = []

    def check(label: str, passed: bool) -> None:
        verdicts.append(passed)
        print(f"{'PASS' if passed else 'FAIL'} {label}", flush=True)

    spec = load_spec()
    check("BENCHMARK.json lists exactly the workloads that exist",
          [w["name"] for w in spec["workloads"]] == list(WORKLOADS))

    ready = {}
    for name, build in WORKLOADS.items():
        wl = ready[name] = build(seed)
        wl.generate()
        wl.setup()
        wl.build_oracle()
        check(f"{name}: two blocks pass the oracle", failures(wl) == 0)
    try:
        transform = ready["transform_corpus"]
        ran, wrong = transform.check_once()
        check(f"transform_corpus: {ran} transformed kernels equal their "
              "originals", wrong == 0)

        mixed = ready["hotset_mixed"]
        mixed.reset_stream()
        mixed.build_oracle()
        mixed.io = stub_io(mixed.shadow, stale=True)
        check("hotset_mixed: a stale rating fails the oracle",
              failures(mixed) > 0)

        scan = ready["scan_agg"]
        scan.count_at_least = {
            rating: count + 1 for rating, count in scan.count_at_least.items()
        }
        check("scan_agg: a corrupted expected count fails the oracle",
              failures(scan) > 0)

        name, source = transform.corpus[0]
        emitted = transform.transform(source).source
        check("transform_corpus: an emission that does not compile fails "
              "the oracle",
              transform.emission_ok(name, emitted)
              and not transform.emission_ok(name, emitted + "\ndef broken(:\n"))
    finally:
        for wl in ready.values():
            wl.teardown()

    try:
        stats.percentile(sorted(range(100)), 0.95)
    except stats.TooFewSamples:
        check("a p95 of 100 samples is refused", True)
    else:
        check("a p95 of 100 samples is refused", False)
    print(f"selftest: {sum(verdicts)} of {len(verdicts)} checks passed")
    return 0 if all(verdicts) else 1
