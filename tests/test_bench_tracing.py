"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py looks each traced name up on its owner, so removing or
renaming one of them breaks `bench/run.py --trace 1`; this test makes
that visible in the unit suite.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_a_binding_site_for_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import TARGETS, Tracer

    sites = Tracer().sites()
    for module_name, class_name, attr in TARGETS.values():
        owner = class_name or module_name
        assert "%s.%s" % (owner, attr) in sites
