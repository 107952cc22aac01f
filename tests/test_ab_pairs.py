"""The decision rule of ``benchmarks/ab_pairs.py`` on canned numbers.

The rule is choosing-metrics §8: a gain needs nine tenths of the pairs
and a median gap wider than the parent's own quartile distance;
otherwise the bound decides, and a metric noisier than its bound is
unresolved rather than unchanged.
"""

import pytest

from benchmarks.ab_pairs import judge

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 101.5]


def shifted(values, factor, flips=()):
    """``values`` scaled by ``factor``; pairs in ``flips`` go the other way."""
    return [v / factor if i in flips else v * factor for i, v in enumerate(values)]


class TestGain:
    def test_clear_win_higher_is_better(self):
        v = judge(PARENT, shifted(PARENT, 1.2), "higher", 0.2)
        assert v.verdict == "gain"
        assert v.wins == 10
        assert v.gain == pytest.approx(0.2)

    def test_clear_win_lower_is_better(self):
        v = judge(PARENT, shifted(PARENT, 0.8), "lower", 0.2)
        assert v.verdict == "gain"
        assert v.gain == pytest.approx(0.2)  # positive is better either way

    def test_nine_of_ten_is_enough_eight_is_not(self):
        assert judge(PARENT, shifted(PARENT, 1.2, flips={3}), "higher", 0.2).verdict == "gain"
        v = judge(PARENT, shifted(PARENT, 1.2, flips={3, 6}), "higher", 0.2)
        assert v.wins == 8 and v.verdict == "no worse"

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, 1.2)
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        v = judge(PARENT, change, "higher", 0.2)
        assert v.wins == 8  # and the two ties do not make up the nine tenths
        assert v.verdict != "gain"

    def test_median_gap_must_exceed_the_parents_quartile_distance(self):
        # every pair won, but by 1 % where the parent's own runs spread 3 %
        v = judge(PARENT, shifted(PARENT, 1.01), "higher", 0.2)
        assert v.wins == 10 and v.verdict == "no worse"

    def test_more_failures_void_a_gain(self):
        v = judge(PARENT, shifted(PARENT, 1.2), "higher", 0.2, more_failures=True)
        assert v.verdict == "no worse"


class TestBound:
    def test_worse_beyond_the_bound(self):
        assert judge(PARENT, shifted(PARENT, 1.3), "lower", 0.2).verdict == "worse"
        assert judge(PARENT, shifted(PARENT, 0.7), "higher", 0.2).verdict == "worse"

    def test_worse_within_the_bound_is_no_worse(self):
        assert judge(PARENT, shifted(PARENT, 1.1), "lower", 0.2).verdict == "no worse"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [100.0, 130.0, 75.0, 120.0, 80.0, 125.0, 70.0, 110.0, 90.0, 105.0]
        v = judge(noisy, [n * 1.01 for n in noisy], "lower", 0.05)
        assert v.verdict == "unresolved"
        # the same noise under a bound it fits in is a plain pass
        assert judge(noisy, [n * 1.01 for n in noisy], "lower", 0.5).verdict == "no worse"

    def test_noisy_but_every_change_run_beats_every_parent_run(self):
        noisy = [100.0, 130.0, 75.0, 120.0, 80.0, 125.0, 70.0, 110.0, 90.0, 105.0]
        better = [60.0, 40.0, 65.0, 45.0, 62.0, 41.0, 66.0, 50.0, 55.0, 69.0]
        assert judge(noisy, better, "lower", 0.05).verdict == "gain"
        # with the gain voided, the separation still resolves the metric
        assert judge(noisy, better, "lower", 0.05, more_failures=True).verdict == "no worse"


def test_mismatched_or_empty_runs_are_refused():
    with pytest.raises(ValueError):
        judge([], [], "lower", 0.2)
    with pytest.raises(ValueError):
        judge([1.0, 2.0], [1.0], "lower", 0.2)


def test_single_pair_has_no_spread_to_clear():
    v = judge([100.0], [80.0], "lower", 0.2)
    assert v.parent_quartiles == (100.0, 100.0)
    assert v.verdict == "gain"  # 1/1 won over a zero spread: how many pairs is the caller's call


def traced_line(slowdown, digest="c26de5bdc1855593", **metrics):
    """A ``--trace 1`` result line as ``run_once`` hands it on."""
    values = {"bench.slowdown": slowdown, "tsdb.scrape.samples": 13061.057142857142,
              "tsdb.storage.series": 8200.0, "tsdb.rules.samples_out": 581.7142857142857,
              "tsdb.promql.queries": 63.5, "exporter.renders": 194.0, "lb.requests": 49.0,
              "frontend.subqueries": 42.0, "tsdb.http.bytes_out": 195072.0, **metrics}  # fmt: skip
    return {"correct": True, "attempted": 9225, "failed": 0, "digest": digest,
            "metrics": {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "1/op"}
                        for name, value in values.items()}}  # fmt: skip


class TestLayers:
    """``--layers``: per-layer medians at calibration speed, and the
    counts that must not move."""

    def test_a_layer_value_is_divided_by_slowdown_to_the_0_7(self):
        from benchmarks.ab_pairs import normalised_layer

        line = traced_line(1.33, **{"tsdb.promql.eval_ms": 44.9})
        assert normalised_layer(line, "tsdb.promql.eval_ms") == pytest.approx(44.9 / 1.33**0.7)
        # a run at calibration speed reads as measured
        assert normalised_layer(traced_line(1.0, **{"tsdb.promql.eval_ms": 30.0}), "tsdb.promql.eval_ms") == 30.0
        # a count is the same on a slow machine
        assert normalised_layer(line, "tsdb.promql.queries") == 63.5

    def test_medians_are_taken_after_normalising_each_run_by_its_own_speed(self):
        from benchmarks.ab_pairs import layer_medians

        # the same work on a machine drifting 1.0 -> 2.0: as measured the
        # medians differ, normalised they agree
        def side(base):
            return [traced_line(s, **{"x_ms": base * s**0.7}) for s in (1.0, 1.5, 2.0)]

        medians = layer_medians({"parent": side(40.0), "change": side(20.0)}, ["x_ms"])
        assert medians["x_ms"] == pytest.approx((40.0, 20.0))

    def test_counts_and_digest_identical(self):
        from benchmarks.ab_pairs import IDENTITY_COUNTS, identity_check

        runs = {"parent": [traced_line(1.1), traced_line(0.9)], "change": [traced_line(1.0), traced_line(1.2)]}
        checked = identity_check(runs)
        assert set(checked) == {*IDENTITY_COUNTS, "digest"}
        assert all(verdict == "identical" for verdict, _values in checked.values())
        assert checked["tsdb.promql.queries"][1] == [63.5]

    def test_one_run_with_another_count_or_digest_differs(self):
        from benchmarks.ab_pairs import identity_check

        odd = traced_line(1.0, digest="0000000000000000", **{"tsdb.rules.samples_out": 580.0})
        checked = identity_check({"parent": [traced_line(1.0)] * 3, "change": [traced_line(1.0), odd, traced_line(1.0)]})
        assert checked["tsdb.rules.samples_out"] == ("differs", [580.0, 581.7142857142857])
        assert checked["digest"][0] == "differs"
        assert checked["tsdb.scrape.samples"][0] == "identical"

    def test_runs_without_a_digest_line_are_judged_on_counts_alone(self):
        from benchmarks.ab_pairs import identity_check

        bare = traced_line(1.0)
        del bare["digest"]
        assert "digest" not in identity_check({"parent": [bare], "change": [traced_line(1.0)]})

    def test_fewer_exporter_bodies_is_a_difference(self):
        from benchmarks.ab_pairs import IDENTITY_COUNTS, identity_check

        assert "exporter.renders" in IDENTITY_COUNTS
        lazy = traced_line(1.0, **{"exporter.renders": 97.0})
        checked = identity_check({"parent": [traced_line(1.0)] * 2, "change": [traced_line(1.0), lazy]})
        assert checked["exporter.renders"] == ("differs", [97.0, 194.0])

    def test_fewer_lb_requests_or_frontend_subqueries_is_a_difference(self):
        """A serving path made cheaper by answering less is not cheaper."""
        from benchmarks.ab_pairs import IDENTITY_COUNTS, identity_check

        assert {"lb.requests", "frontend.subqueries"} <= set(IDENTITY_COUNTS)
        same = {"parent": [traced_line(1.0)] * 2, "change": [traced_line(1.2)] * 2}
        assert identity_check(same)["lb.requests"] == ("identical", [49.0])
        assert identity_check(same)["frontend.subqueries"] == ("identical", [42.0])
        fewer = traced_line(1.0, **{"lb.requests": 48.0})
        checked = identity_check({"parent": [traced_line(1.0)] * 2, "change": [traced_line(1.0), fewer]})
        assert checked["lb.requests"] == ("differs", [48.0, 49.0])
        merged = traced_line(1.0, **{"frontend.subqueries": 21.0})
        checked = identity_check({"parent": [traced_line(1.0)] * 2, "change": [merged, merged]})
        assert checked["frontend.subqueries"] == ("differs", [21.0, 42.0])
        assert checked["lb.requests"][0] == "identical"

    def test_other_answer_bytes_are_a_difference(self):
        """A cheaper renderer must send the same bytes, not fewer or more."""
        from benchmarks.ab_pairs import IDENTITY_COUNTS, identity_check

        assert "tsdb.http.bytes_out" in IDENTITY_COUNTS
        same = {"parent": [traced_line(1.0)] * 2, "change": [traced_line(0.8)] * 2}
        assert identity_check(same)["tsdb.http.bytes_out"] == ("identical", [195072.0])
        respelled = traced_line(1.0, **{"tsdb.http.bytes_out": 195073.5})
        checked = identity_check({"parent": [traced_line(1.0)] * 2, "change": [traced_line(1.0), respelled]})
        assert checked["tsdb.http.bytes_out"] == ("differs", [195072.0, 195073.5])
        assert checked["lb.requests"][0] == checked["frontend.subqueries"][0] == "identical"

    def test_a_count_the_parent_cannot_repeat_varies_unless_the_sides_part(self):
        """Answers carrying wall-clock values (probe durations) change
        a few bytes from run to run on either side."""
        from benchmarks.ab_pairs import identity_check

        def side(*sizes):
            return [traced_line(1.0, **{"tsdb.http.bytes_out": s}) for s in sizes]

        overlapping = identity_check({"parent": side(194700.8, 194835.9), "change": side(194728.2, 194741.5)})
        assert overlapping["tsdb.http.bytes_out"] == ("varies", [194700.8, 194728.2, 194741.5, 194835.9])
        apart = identity_check({"parent": side(194700.8, 194835.9), "change": side(190000.0, 190100.0)})
        assert apart["tsdb.http.bytes_out"][0] == "differs"
        # a parent that repeats itself leaves no room: any other value differs
        steady = identity_check({"parent": side(194700.8, 194700.8), "change": side(194700.8, 194701.0)})
        assert steady["tsdb.http.bytes_out"][0] == "differs"

    def test_bare_layers_names_the_serving_layers_on_dash_workloads_only(self, capsys):
        from benchmarks.ab_pairs import SERVING_LAYERS, layer_names, print_layers

        assert layer_names("", "dash_live") == []  # no --layers: the end-to-end verdicts
        assert layer_names("a_ms,,b", "ingest_mem") == ["a_ms", "b"]
        assert layer_names("a_ms", "dash_cold") == ["a_ms"]  # a list wins over the default
        assert layer_names(None, "dash_live") == layer_names(None, "dash_cold") == list(SERVING_LAYERS)
        assert "frontend.self_ms" in SERVING_LAYERS and all(name.endswith("_ms") for name in SERVING_LAYERS)
        with pytest.raises(SystemExit, match="ingest_mem"):
            layer_names(None, "ingest_mem")
        # every default row is printed and summed from canned lines
        parent = {name: 10.0 for name in SERVING_LAYERS} | {"frontend.self_ms": 20.0}
        change = {name: 10.0 for name in SERVING_LAYERS} | {"frontend.self_ms": 2.0}
        print_layers({"parent": [traced_line(1.0, **parent)], "change": [traced_line(1.0, **change)]}, list(SERVING_LAYERS))
        out = capsys.readouterr().out
        assert all(name in out for name in SERVING_LAYERS)
        assert "70.0000      52.0000   -18.00" in out

    def test_refill_share_is_shown_only_when_every_run_of_both_sides_reports_it(self, capsys):
        from benchmarks.ab_pairs import print_layers, refill_shares

        def side(*shares):
            return [traced_line(1.0, **({"exporter.refill_ratio": s} if s is not None else {})) for s in shares]

        assert refill_shares({"parent": side(None, None), "change": side(0.93, 0.95)}) is None
        assert refill_shares({"parent": side(0.0, 0.0), "change": side(0.93, None)}) is None
        both = {"parent": side(0.0, 0.0, 0.0), "change": side(0.93, 0.95, 0.94)}
        assert refill_shares(both) == (0.0, 0.94)
        print_layers(both, [])
        assert "exporter.refill_ratio" in capsys.readouterr().out
        print_layers({"parent": side(None), "change": side(0.9)}, [])
        assert "exporter.refill_ratio" not in capsys.readouterr().out
