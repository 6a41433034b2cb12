"""Ablations over the design choices DESIGN.md calls out.

The paper leaves several parameters open (retry limit, BLESS period,
bit-error rate, the Twf_rdata guard); these tests sweep each on a small
static network and check the direction of the effect, so a future change
that silently flips a trade-off fails loudly.
"""

from repro.world.network import ScenarioConfig, build_network

BASE = dict(protocol="rmac", n_nodes=16, width=220, height=160,
            rate_pps=10, n_packets=40, warmup_s=4.0, drain_s=3.0, seed=3)


def _run(**overrides):
    config = ScenarioConfig(**{**BASE, **overrides})
    return build_network(config).run()


def test_ablation_retry_limit():
    """Fewer retries -> more drops under mobility; never worse delivery
    with more retries."""
    ratios = {
        limit: _run(mobile=True, max_speed=8.0, pause_s=5.0,
                    mac_overrides={"retry_limit": limit}).delivery_ratio
        for limit in (0, 2, 7)
    }
    assert ratios[7] >= ratios[0] - 0.02


def test_ablation_bless_period():
    """A slower tree heartbeat reconfigures later: delivery under high
    mobility must not improve when the period stretches 4x."""
    ratios = {
        period: _run(mobile=True, max_speed=16.0, pause_s=1.0,
                     bless_period_s=period,
                     bless_expiry_s=3 * period).delivery_ratio
        for period in (0.5, 2.0)
    }
    assert ratios[0.5] >= ratios[2.0] - 0.05


def test_ablation_rdata_guard():
    """The Twf_rdata guard is load-bearing: with the paper's exactly-tight
    timer (guard = 0) the first data bit arrives at the *same instant* the
    timer expires, the receiver gives up first, and delivery collapses to
    zero -- evidence that real hardware needs turnaround slack the paper
    leaves implicit. Any positive guard restores full delivery."""
    ratios = {
        guard_ns: _run(mac_overrides={"rdata_guard": guard_ns}).delivery_ratio
        for guard_ns in (0, 2_000, 10_000)
    }
    assert ratios[0] < 0.5           # the documented collapse
    assert ratios[2_000] > 0.95
    assert ratios[10_000] > 0.95


def test_ablation_max_receivers():
    """Shrinking the MRTS cap forces more invocations (Section 3.4): the
    MRTS count rises while delivery stays high."""
    results = {}
    for cap in (2, 20):
        config = ScenarioConfig(**{**BASE, "mac_overrides": {"max_receivers": cap}})
        net = build_network(config)
        summary = net.run()
        mrts = sum(mac.stats.mrts_transmissions for mac in net.macs)
        results[cap] = (summary.delivery_ratio, mrts)
    assert results[2][0] > 0.95 and results[20][0] > 0.95
    assert results[2][1] >= results[20][1]
