"""Tests for the Prometheus text exposition format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ScrapeError
from repro.tsdb.exposition import (
    _PLAIN_EXEMPLAR,
    Exemplar,
    MetricFamily,
    MetricPoint,
    parse,
    parse_exemplar,
    parse_sample_line,
    render,
    split_exemplar,
    to_labels,
)
from tests.reference.exposition import parse_exemplar as frozen_parse_exemplar


class TestRender:
    def test_basic_family(self):
        family = MetricFamily("up", help="Target up.", type="gauge")
        family.add(1.0, job="ceems")
        text = render([family])
        assert "# HELP up Target up." in text
        assert "# TYPE up gauge" in text
        assert 'up{job="ceems"} 1' in text

    def test_no_labels(self):
        family = MetricFamily("total", type="counter")
        family.add(42.5)
        assert "total 42.5" in render([family])

    def test_label_escaping(self):
        family = MetricFamily("m", type="gauge")
        family.add(1.0, path='C:\\dir "quoted"\nnewline')
        text = render([family])
        assert '\\\\' in text and '\\"' in text and "\\n" in text

    def test_special_values(self):
        family = MetricFamily("m", type="gauge")
        family.points = [
            MetricPoint({"k": "nan"}, math.nan),
            MetricPoint({"k": "inf"}, math.inf),
            MetricPoint({"k": "ninf"}, -math.inf),
        ]
        text = render([family])
        assert " NaN" in text and " +Inf" in text and " -Inf" in text

    def test_timestamp_rendering(self):
        family = MetricFamily("m", type="gauge")
        family.add(1.0, timestamp_ms=1700000000000)
        assert "m 1 1700000000000" in render([family])

    def test_labels_sorted(self):
        family = MetricFamily("m", type="gauge")
        family.add(1.0, zeta="1", alpha="2")
        assert 'm{alpha="2",zeta="1"}' in render([family])


class TestParse:
    def test_parse_basic(self):
        families = parse('# TYPE up gauge\nup{job="x"} 1\n')
        assert len(families) == 1
        assert families[0].name == "up"
        assert families[0].type == "gauge"
        assert families[0].points[0].labels == {"job": "x"}
        assert families[0].points[0].value == 1.0

    def test_parse_help(self):
        families = parse("# HELP up Target is up\n# TYPE up gauge\nup 1\n")
        assert families[0].help == "Target is up"

    def test_parse_without_metadata(self):
        families = parse("raw_metric 3.5\n")
        assert families[0].type == "untyped"
        assert families[0].points[0].value == 3.5

    def test_parse_special_values(self):
        families = parse("m NaN\n")
        assert math.isnan(families[0].points[0].value)
        families = parse("m +Inf\nm2 -Inf\n")
        assert families[0].points[0].value == math.inf

    def test_parse_timestamp(self):
        families = parse("m 1 1700000000000\n")
        assert families[0].points[0].timestamp_ms == 1700000000000

    def test_parse_escaped_labels(self):
        families = parse('m{path="a\\\\b\\"c\\nd"} 1\n')
        assert families[0].points[0].labels["path"] == 'a\\b"c\nd'

    def test_blank_lines_and_comments_skipped(self):
        families = parse("\n# random comment\nm 1\n\n")
        assert len(families) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "m{a=} 1",
            'm{a="unterminated} 1',
            "m{=x} 1",
            "m",
            "m{} notanumber",
            "# TYPE m sometype\nm 1",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ScrapeError):
            parse(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            'a{b="c"} 1 2 3 garbage',  # tokens after the timestamp (used to parse as 1 @ 2)
            "a 1 2 3",
            "a 1_0",  # PEP-515 separators: Python reads 10.0, Go's ParseFloat refuses
            'a{b="c"} 1_000.5',
            "a 1 1.5",  # timestamps are integer milliseconds (used to be a bare ValueError)
            "a 1 soon",
            "a 1 1_0",
            "a 1 # {} 1_0",  # the same two holes inside an exemplar
            "a 1 # {} 1 1_0",
        ],
    )
    def test_numeric_token_grammar(self, bad):
        """Every one a ScrapeError naming the line — from the line
        parser and from the body parser alike."""
        with pytest.raises(ScrapeError, match="line 7"):
            parse_sample_line(bad, 7)
        with pytest.raises(ScrapeError, match="line 3"):
            parse(f"# TYPE a gauge\nok 1\n{bad}\n")

    def test_numeric_tokens_still_accepted(self):
        for text, value, ts in [
            ("a 1e3 1500", 1000.0, 1500),
            ("a -0.5 -1", -0.5, -1),
            ("a +Inf", math.inf, None),
            ("a Inf", math.inf, None),
            ("a -Inf 0", -math.inf, 0),
            ('a{b="1_0"} 10', 10.0, None),  # underscores in label values are data
        ]:
            _name, _labels, got, got_ts, _ex = parse_sample_line(text)
            assert (got, got_ts) == (value, ts), text
        assert math.isnan(parse_sample_line("a NaN")[2])

    def test_multiple_families(self):
        text = "# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"1\"} 2\nb{x=\"2\"} 3\n"
        families = {f.name: f for f in parse(text)}
        assert families["a"].type == "counter"
        assert len(families["b"].points) == 2


class TestToLabels:
    def test_metric_labels_win_over_target_labels(self):
        """honor_labels semantics for exporter-supplied identity."""
        point = MetricPoint({"uuid": "123", "instance": "from-metric"}, 1.0)
        labels = to_labels("m", point, {"instance": "target:9010", "job": "ceems"})
        assert labels.get("instance") == "from-metric"
        assert labels.get("job") == "ceems"
        assert labels.get("uuid") == "123"
        assert labels.metric_name == "m"


# The text format escapes only ``\n`` — other line-breaking
# characters (``\r``, U+2028/U+2029, category Zl/Zp) would split the
# rendered line at parse time.  That is a (pre-existing) limitation of
# the exposition format itself, so the fuzz alphabet excludes them.
_label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
    min_size=0,
    max_size=15,
)


@given(
    st.lists(
        st.tuples(
            st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True),
            _label_values,
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda t: (t[0], t[1]),
    )
)
def test_render_parse_roundtrip_property(points):
    """Anything rendered must parse back identically."""
    family = MetricFamily("test_metric", help="h", type="gauge")
    for label_name, label_value, value in points:
        family.add(value, **{label_name: label_value})
    parsed = parse(render([family]))
    assert len(parsed) == 1
    reparsed = parsed[0]
    assert reparsed.name == "test_metric"
    originals = {tuple(sorted(p.labels.items())): p.value for p in family.points}
    observed = {tuple(sorted(p.labels.items())): p.value for p in reparsed.points}
    assert set(observed) == set(originals)
    for key, value in observed.items():
        assert value == pytest.approx(originals[key], rel=1e-6)


# Deliberately nasty label values: quote/backslash escapes, '}' and
# ',' inside quoted values, leading/trailing spaces — everything the
# scrape fast lane's prefix splitter has to survive.
_nasty_values = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('\\"\n}{,= ')),
        st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
    ),
    min_size=0,
    max_size=12,
)
_any_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**14), max_value=10**14).map(float),
)


@given(
    st.lists(
        st.tuples(
            st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True),
            st.lists(
                st.tuples(st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True), _nasty_values),
                min_size=0,
                max_size=3,
                unique_by=lambda kv: kv[0],
            ),
            _any_value,
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**50)),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_render_parse_roundtrip_nasty(samples):
    """Exact roundtrip for hostile escapes, NaN/±Inf and timestamps.

    Values compare *exactly* (render emits ``repr``-precision floats),
    and every (labels, value, timestamp) triple must survive — this is
    the contract the scrape cache's raw-text keying leans on.
    """
    families: list[MetricFamily] = []
    by_name: dict[str, MetricFamily] = {}
    for name, labelitems, value, ts in samples:
        fam = by_name.get(name)
        if fam is None:
            fam = by_name[name] = MetricFamily(name, type="gauge")
            families.append(fam)
        fam.points.append(MetricPoint(labels=dict(labelitems), value=value, timestamp_ms=ts))

    def normalize(fams):
        out = set()
        for fam in fams:
            for p in fam.points:
                key = "NaN" if math.isnan(p.value) else p.value
                out.add((fam.name, tuple(sorted(p.labels.items())), key, p.timestamp_ms))
        return out

    parsed = parse(render(families))
    assert normalize(parsed) == normalize(families)


# -- exemplars ---------------------------------------------------------------


class TestExemplars:
    def test_render_counter_exemplar(self):
        fam = MetricFamily("hits_total", type="counter")
        fam.add(5.0, exemplar=Exemplar({"trace_id": "abc"}, 1.0, 12.5), path="/x")
        text = render([fam])
        assert 'hits_total{path="/x"} 5 # {trace_id="abc"} 1 12.5\n' in text

    def test_render_exemplar_without_timestamp(self):
        fam = MetricFamily("m", type="counter")
        fam.add(1.0, exemplar=Exemplar({"trace_id": "t"}, 0.25))
        assert 'm 1 # {trace_id="t"} 0.25\n' in render([fam])

    def test_parse_attaches_exemplar(self):
        text = 'lat_bucket{le="0.5"} 3 # {trace_id="deadbeef"} 0.42 99.5\n'
        fams = parse(text)
        point = fams[0].points[0]
        assert point.exemplar is not None
        assert point.exemplar.labels == {"trace_id": "deadbeef"}
        assert point.exemplar.value == 0.42
        assert point.exemplar.timestamp == 99.5

    def test_split_exemplar_ignores_quoted_hash(self):
        line = 'm{path="/x#frag"} 1 # {trace_id="a"} 2'
        sample, ex = split_exemplar(line)
        assert sample == 'm{path="/x#frag"} 1'
        assert ex == '# {trace_id="a"} 2'

    def test_sample_timestamp_and_exemplar_coexist(self):
        name, labels, value, ts, ex = parse_sample_line(
            'm{a="b"} 2 1500 # {trace_id="t"} 2'
        )
        assert (value, ts) == (2.0, 1500)
        assert ex.value == 2.0 and ex.timestamp is None

    @pytest.mark.parametrize(
        "bad",
        [
            "# trace 1",  # no label set
            '# {trace_id="a" 1',  # unterminated
            '# {trace_id="a"}',  # no value
            '# {trace_id="a"} 1 2 3',  # trailing tokens
            '# {trace_id="a"} 1 x',  # bad timestamp
            '# {trace_id=a} 1',  # unquoted label value
        ],
    )
    def test_malformed_exemplars_rejected(self, bad):
        with pytest.raises(ScrapeError):
            parse_exemplar(bad, 1)

    def test_empty_exemplar_labelset_allowed(self):
        ex = parse_exemplar("# {} 1.5", 1)
        assert ex.labels == {} and ex.value == 1.5

    def test_exemplar_special_values(self):
        for text, check in [
            ("# {} NaN", lambda v: math.isnan(v)),
            ("# {} +Inf", lambda v: v == math.inf),
            ("# {} -Inf", lambda v: v == -math.inf),
        ]:
            assert check(parse_exemplar(text, 1).value)


_exemplar_ts = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=2**31, allow_nan=False, width=32),
)


@given(
    st.lists(
        st.tuples(
            st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True),
            st.lists(
                st.tuples(st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True), _nasty_values),
                min_size=0,
                max_size=2,
                unique_by=lambda kv: kv[0],
            ),
            _any_value,
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**50)),
            st.one_of(
                st.none(),
                st.tuples(
                    st.lists(
                        st.tuples(
                            st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True),
                            _nasty_values,
                        ),
                        min_size=0,
                        max_size=2,
                        unique_by=lambda kv: kv[0],
                    ),
                    _any_value,
                    _exemplar_ts,
                ),
            ),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_render_parse_roundtrip_exemplars(samples):
    """Exemplar-carrying lines roundtrip exactly — hostile escapes,
    NaN/±Inf exemplar values and missing timestamps included."""
    families: list[MetricFamily] = []
    by_name: dict[str, MetricFamily] = {}
    for name, labelitems, value, ts, extuple in samples:
        fam = by_name.get(name)
        if fam is None:
            fam = by_name[name] = MetricFamily(name, type="counter")
            families.append(fam)
        exemplar = None
        if extuple is not None:
            ex_labels, ex_value, ex_ts = extuple
            exemplar = Exemplar(dict(ex_labels), ex_value, ex_ts)
        fam.points.append(
            MetricPoint(
                labels=dict(labelitems),
                value=value,
                timestamp_ms=ts,
                exemplar=exemplar,
            )
        )

    def norm_value(v):
        return "NaN" if isinstance(v, float) and math.isnan(v) else v

    def norm_exemplar(ex):
        if ex is None:
            return None
        return (
            tuple(sorted(ex.labels.items())),
            norm_value(ex.value),
            norm_value(ex.timestamp),
        )

    def normalize(fams):
        out = set()
        for fam in fams:
            for p in fam.points:
                out.add(
                    (
                        fam.name,
                        tuple(sorted(p.labels.items())),
                        norm_value(p.value),
                        p.timestamp_ms,
                        norm_exemplar(p.exemplar),
                    )
                )
        return out

    parsed = parse(render(families))
    assert normalize(parsed) == normalize(families)


def test_render_cache_cold_warm_identical():
    """Repeat renders must be byte-identical.  (Named for the memo
    dicts ``render`` once kept; the suffix an ``Exemplar`` keeps is
    covered by ``TestCollectMemos`` in ``test_obs.py``.)"""
    fam = MetricFamily("m", help="h", type="gauge")
    fam.add(1.5, path='a\\b"c\nd', zone="fr")
    fam.add(math.nan, uuid="x")
    fam2 = MetricFamily("plain", type="counter")
    fam2.add(7.0)
    cold = render([fam, fam2])
    warm = render([fam, fam2])
    assert cold == warm


def test_render_cache_not_stale_after_value_and_label_change():
    fam = MetricFamily("m", type="gauge")
    fam.add(1.0, uuid="a")
    first = render([fam])
    fam.points[0].value = 2.0
    assert " 2" in render([fam])
    fam.points[0].labels["uuid"] = "b"
    changed = render([fam])
    assert 'uuid="b"' in changed and 'uuid="a"' not in changed
    assert first != changed


# -- parse_exemplar: the regex lane and the scan, against the frozen scan ----

_EX_NAMES = ("trace_id", "span_id", "a_b", "é1", "٣", "_", "", "9x", "a-b", "a b")
_EX_VALUES = ("abc", "", "0123abcdef", 'q\\"uote', "back\\\\slash", "nl\\n", "}", "#", "} 1 # {", "é", "x,y", 'bare"quote', "dangling\\")
_EX_NUMBERS = ("1", "0.5", "-2.5e3", "NaN", "+Inf", "-Inf", "1_0", "abc", "0x10", "")
_EX_GAPS = ("", " ", "  ", "\t", "\u00a0", "\u2003")


@st.composite
def _exemplar_suffix(draw):
    """``#`` + label set + number [+ timestamp], every part perturbed."""
    labels = draw(st.lists(st.tuples(st.sampled_from(_EX_NAMES), st.sampled_from(_EX_VALUES)), max_size=2))
    inner = draw(st.sampled_from((",", ", ", ""))).join(f'{name}="{value}"' for name, value in labels)
    inner += draw(st.sampled_from(("", "", ",")))
    gap = lambda: draw(st.sampled_from(_EX_GAPS))  # noqa: E731
    space = lambda: draw(st.sampled_from((" ", " ", " ", *_EX_GAPS)))  # noqa: E731
    brace_open, brace_close = draw(st.sampled_from((("{", "}"), ("{", "}"), ("{", ""), ("", "}"), ("", ""))))
    tokens = draw(st.lists(st.sampled_from(_EX_NUMBERS), min_size=0, max_size=3))
    tail = "".join(space() + token for token in tokens)
    return f"#{space()}{brace_open}{inner}{brace_close}{tail}{gap()}"


@st.composite
def _nearly_plain_suffix(draw):
    """One label, one number: the shape the regex lane exists for, with
    every name, value and number the scan might read differently."""
    sep = st.sampled_from((" ", " ", " ", " ", *_EX_GAPS))
    name, value = draw(st.sampled_from(_EX_NAMES)), draw(st.sampled_from(_EX_VALUES))
    number = draw(st.sampled_from(_EX_NUMBERS + ("1\u00a02", "1\u20032")))
    end = draw(st.sampled_from(("", "", "", " ", "\u00a0")))
    return f'#{draw(sep)}{{{name}="{value}"}}{draw(sep)}{number}{end}'


def _exemplar_outcome(fn, text):
    try:
        ex = fn(text, 7)
    except ScrapeError as exc:
        return ("error", str(exc))
    return ("ok", ex.labels, repr(ex.value), repr(ex.timestamp))


class TestParseExemplarLanes:
    """The same ``Exemplar`` or the same ``ScrapeError`` text as the
    scan that read every suffix before the regex lane existed."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            _nearly_plain_suffix(),
            _exemplar_suffix(),
            st.text(alphabet='# {}="\\,_1ae.é\t', max_size=24).map(lambda s: "#" + s),
        )
    )
    def test_same_outcome_as_the_frozen_scan(self, text):
        assert _exemplar_outcome(parse_exemplar, text) == _exemplar_outcome(frozen_parse_exemplar, text)

    @pytest.mark.parametrize(
        "text,plain",
        [
            ('# {trace_id="0123abcdef"} 0.5', True),
            ('# {é1="}#{"} NaN', True),  # '}' and '#' inside quotes, a Unicode name
            ('# {trace_id="abc"} 1_0', True),  # takes the lane, fails in the shared number rule
            ('# {trace_id="abc"} 0.5 1712.5', False),  # a timestamp
            ('# {trace_id="abc",span_id="d"} 1', False),  # two labels
            ('# {trace_id="q\\"uote"} 1', False),  # an escape
            ('#  {trace_id="abc"} 1', False),
            ('# {trace_id="abc"}  1', False),
            ('# {trace_id="abc"} 1 ', False),
            ("# {} 1", False),
        ],
    )
    def test_what_the_regex_lane_takes(self, text, plain):
        assert (_PLAIN_EXEMPLAR.fullmatch(text) is not None) == plain
        assert _exemplar_outcome(parse_exemplar, text) == _exemplar_outcome(frozen_parse_exemplar, text)
