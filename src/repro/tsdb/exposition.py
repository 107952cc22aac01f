"""Prometheus text exposition format — renderer and parser.

The exporter renders its metrics in this format (paper §II.B.a: the
exporter *"sends the metrics response to every request in a format
understandable by Prometheus"*); the scrape manager parses it back.
Both directions are implemented so the wire contract is real text, not
shared Python objects.

Supported format features: ``# HELP`` / ``# TYPE`` comments, label
escaping (``\\``, ``\"``, ``\\n``), ``NaN``/``+Inf``/``-Inf`` values,
optional millisecond timestamps, and OpenMetrics-style exemplars
(``# {trace_id="..."} value [ts]`` suffixes on counter and histogram
bucket lines) — the subset the Prometheus ecosystem actually
exchanges for counters, gauges and histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ScrapeError
from repro.tsdb.model import METRIC_NAME_LABEL, Labels

VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


@dataclass(slots=True)
class Exemplar:
    """An OpenMetrics exemplar: a sampled reference riding on a point.

    ``labels`` is the exemplar's own label set (conventionally a
    single ``trace_id``); ``timestamp`` is in **seconds** (the
    OpenMetrics wire unit) and optional — the scrape layer substitutes
    the scrape timestamp when absent.
    """

    labels: dict[str, str]
    value: float
    timestamp: float | None = None
    #: The rendered ``# {labels} value [ts]`` suffix, filled in by the
    #: first :func:`render` — so an exemplar is immutable once it rides
    #: a rendered point; to change one, attach a new ``Exemplar``.
    _suffix: str | None = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class MetricPoint:
    """One exposed sample: labels (without ``__name__``) + value."""

    labels: dict[str, str]
    value: float
    timestamp_ms: int | None = None
    exemplar: Exemplar | None = None


@dataclass(slots=True)
class MetricFamily:
    """A named metric with HELP/TYPE metadata and its points."""

    name: str
    help: str = ""
    type: str = "gauge"
    points: list[MetricPoint] = field(default_factory=list)

    def add(
        self,
        value: float,
        timestamp_ms: int | None = None,
        exemplar: Exemplar | None = None,
        **labels: str,
    ) -> None:
        self.points.append(
            MetricPoint(labels=labels, value=value, timestamp_ms=timestamp_ms, exemplar=exemplar)
        )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: Render-side memoisation.  An exporter re-collects every scrape, but
#: the *identity* parts of its output — family headers and the
#: ``name{escaped labels}`` line skeletons — are stable across
#: collections; only values change.  The caches below mean a repeat
#: render pays label sorting/escaping exactly once per distinct series
#: shape.  Keys are raw (unsorted) label item tuples so a hit costs no
#: sort; two insertion orders of the same labels simply occupy two
#: slots pointing at the same canonical skeleton text.  Cleared
#: wholesale at the cap so high-churn label values (per-job uuids)
#: cannot grow them without bound.
_SKELETON_CACHE: dict[tuple, str] = {}
_SKELETON_CACHE_MAX = 65536
_HEADER_CACHE: dict[tuple[str, str, str], str] = {}
_HEADER_CACHE_MAX = 4096
_VALUE_CACHE: dict[float, str] = {}
_VALUE_CACHE_MAX = 4096


def _format_value_uncached(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    cached = _VALUE_CACHE.get(value)
    if cached is None:
        cached = _format_value_uncached(value)
        if len(_VALUE_CACHE) >= _VALUE_CACHE_MAX:
            _VALUE_CACHE.clear()
        _VALUE_CACHE[value] = cached
    return cached


def _family_header(name: str, help: str, type: str) -> str:
    key = (name, help, type)
    header = _HEADER_CACHE.get(key)
    if header is None:
        if help:
            header = f"# HELP {name} {_escape_help(help)}\n# TYPE {name} {type}"
        else:
            header = f"# TYPE {name} {type}"
        if len(_HEADER_CACHE) >= _HEADER_CACHE_MAX:
            _HEADER_CACHE.clear()
        _HEADER_CACHE[key] = header
    return header


def _series_skeleton(name: str, labels: dict[str, str]) -> str:
    key = (name, *labels.items())
    skeleton = _SKELETON_CACHE.get(key)
    if skeleton is None:
        label_str = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
        )
        skeleton = f"{name}{{{label_str}}}"
        if len(_SKELETON_CACHE) >= _SKELETON_CACHE_MAX:
            _SKELETON_CACHE.clear()
        _SKELETON_CACHE[key] = skeleton
    return skeleton


def clear_render_caches() -> None:
    """Drop the render memos (tests and memory-pressure hooks)."""
    _SKELETON_CACHE.clear()
    _HEADER_CACHE.clear()
    _VALUE_CACHE.clear()


def _render_exemplar(exemplar: Exemplar) -> str:
    """The ``# {labels} value [ts]`` suffix of an exemplar-carrying line.

    Computed once per :class:`Exemplar` and kept on it: a metric holds
    the same exemplar object until a new observation replaces it, so a
    repeat render of an unchanged slot costs one attribute read.  The
    module-level memos stay out of it — trace ids never repeat, so
    they would only thrash the series-identity entries.  The text is a
    pure function of the exemplar, so cold and warm renders stay
    byte-identical.
    """
    suffix = exemplar._suffix
    if suffix is None:
        label_str = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sorted(exemplar.labels.items())
        )
        suffix = f"# {{{label_str}}} {_format_value_uncached(exemplar.value)}"
        if exemplar.timestamp is not None:
            suffix = f"{suffix} {_format_value_uncached(exemplar.timestamp)}"
        exemplar._suffix = suffix
    return suffix


def render(families: list[MetricFamily]) -> str:
    """Render metric families to exposition text."""
    lines: list[str] = []
    append = lines.append
    for family in families:
        name = family.name
        append(_family_header(name, family.help, family.type))
        for point in family.points:
            labels = point.labels
            series = _series_skeleton(name, labels) if labels else name
            if point.timestamp_ms is not None:
                line = f"{series} {_format_value(point.value)} {point.timestamp_ms}"
            else:
                line = f"{series} {_format_value(point.value)}"
            if point.exemplar is not None:
                line = f"{line} {_render_exemplar(point.exemplar)}"
            append(line)
    return "\n".join(lines) + "\n"


def _parse_labels(text: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        # label name
        j = i
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        name = text[i:j]
        if not name:
            raise ScrapeError(f"line {lineno}: empty label name in {text!r}")
        if j >= len(text) or text[j] != "=":
            raise ScrapeError(f"line {lineno}: expected '=' after label {name!r}")
        j += 1
        if j >= len(text) or text[j] != '"':
            raise ScrapeError(f"line {lineno}: expected '\"' for label {name!r}")
        j += 1
        value_chars: list[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\":
                if j + 1 >= len(text):
                    raise ScrapeError(f"line {lineno}: dangling escape")
                nxt = text[j + 1]
                value_chars.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise ScrapeError(f"line {lineno}: unterminated label value")
        labels[name] = "".join(value_chars)
        j += 1  # past closing quote
        if j < len(text) and text[j] == ",":
            j += 1
        i = j
    return labels


def _parse_number(token: str, lineno: int, what: str = "value", convert=float):
    """One numeric token, by Go's ``ParseFloat``/``ParseInt`` rules.

    Python's ``float``/``int`` spell ``NaN``/``+Inf``/``-Inf`` the way
    the format does, but also take PEP-515 digit separators (``1_0``)
    that no Prometheus parser accepts — those are rejected here.
    """
    if "_" not in token:
        try:
            return convert(token)
        except ValueError:
            pass
    raise ScrapeError(f"line {lineno}: bad {what} {token!r}")


def parse_sample_tail(tokens: list[str], lineno: int = 0) -> tuple[float, int | None]:
    """Parse ``value [timestamp]`` — all that may follow the series text.

    Shared by :func:`parse_sample_line` and the scrape layout rebuild
    (which skips the label parse for series text it already knows), so
    both accept exactly one value, at most one integer millisecond
    timestamp, and nothing after it.
    """
    if not tokens:
        raise ScrapeError(f"line {lineno}: sample without value")
    if len(tokens) > 2:
        raise ScrapeError(f"line {lineno}: trailing tokens after timestamp")
    value = _parse_number(tokens[0], lineno)
    if len(tokens) == 1:
        return value, None
    return value, _parse_number(tokens[1], lineno, "timestamp", int)


def split_exemplar(line: str) -> tuple[str, str | None]:
    """Split a sample line into ``(sample_part, exemplar_text)``.

    The exemplar suffix starts at the first ``#`` outside quoted label
    values (quoted values may legally contain ``#``).  Lines without
    one return ``(line, None)``.  Shared by :func:`parse_sample_line`
    and the scrape layout rebuild so both carve the line identically.
    """
    quote = False
    escaped = False
    for idx, ch in enumerate(line):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
        elif ch == '"':
            quote = not quote
        elif ch == "#" and not quote:
            return line[:idx].rstrip(), line[idx:]
    return line, None


def parse_exemplar(text: str, lineno: int = 0) -> Exemplar:
    """Parse an exemplar suffix (``text`` starts at the ``#``)."""
    body = text[1:].lstrip()
    if not body.startswith("{"):
        raise ScrapeError(f"line {lineno}: exemplar must carry a {{...}} label set")
    rest = body[1:]
    quote = False
    escaped = False
    end = -1
    for idx, ch in enumerate(rest):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
        elif ch == '"':
            quote = not quote
        elif ch == "}" and not quote:
            end = idx
            break
    if end == -1:
        raise ScrapeError(f"line {lineno}: unterminated exemplar label set")
    labels = _parse_labels(rest[:end], lineno) if rest[:end] else {}
    tokens = rest[end + 1 :].split()
    if not tokens:
        raise ScrapeError(f"line {lineno}: exemplar without value")
    if len(tokens) > 2:
        raise ScrapeError(f"line {lineno}: trailing tokens after exemplar timestamp")
    value = _parse_number(tokens[0], lineno)
    timestamp: float | None = None
    if len(tokens) == 2:
        timestamp = _parse_number(tokens[1], lineno, "exemplar timestamp")
    return Exemplar(labels=labels, value=value, timestamp=timestamp)


def comment_parts(line: str, lineno: int) -> list[str]:
    """Split and validate a ``#`` comment line.

    TYPE lines must name a valid metric type (Prometheus rejects the
    scrape otherwise); everything else is free-form.  Shared by
    :func:`parse` and the scrape layout rebuild so both reject exactly
    the same payloads.
    """
    parts = line.split(None, 3)
    if len(parts) >= 3 and parts[1] == "TYPE":
        if len(parts) < 4 or parts[3] not in VALID_TYPES:
            raise ScrapeError(f"line {lineno}: bad TYPE line {line!r}")
    return parts


def parse_sample_line(
    line: str, lineno: int = 0
) -> tuple[str, dict[str, str], float, int | None, Exemplar | None]:
    """Parse one (non-empty, non-comment) sample line.

    Returns ``(name, labels, value, timestamp_ms, exemplar)``.  This
    is the single authority on sample-line syntax: :func:`parse` uses
    it for every line and the scrape layout for every line whose
    series text it has not seen, so the scrape lane can never accept a
    line the reference parser rejects (or vice versa).
    """
    # sample line: name{labels} value [timestamp] [# {labels} value [ts]]
    exemplar_text: str | None = None
    if "#" in line:  # cheap C-speed guard; the scan below is Python
        line, exemplar_text = split_exemplar(line)
    if "{" in line:
        name_part, _, rest = line.partition("{")
        # Find the closing brace outside quoted label values —
        # values may legally contain '}' inside quotes.
        quote = False
        escaped = False
        end = -1
        for idx, ch in enumerate(rest):
            if escaped:
                escaped = False
                continue
            if ch == "\\":
                escaped = True
            elif ch == '"':
                quote = not quote
            elif ch == "}" and not quote:
                end = idx
                break
        if end == -1:
            raise ScrapeError(f"line {lineno}: unterminated label set")
        labels = _parse_labels(rest[:end], lineno)
        tokens = rest[end + 1 :].split()
    else:
        tokens = line.split()
        name_part = tokens[0]
        labels = {}
        tokens = tokens[1:]
    name = name_part.strip()
    if not name:
        raise ScrapeError(f"line {lineno}: sample without metric name")
    value, timestamp_ms = parse_sample_tail(tokens, lineno)
    # Exemplar errors surface only after the sample part validated, so
    # the scrape lanes (which validate value and timestamp first)
    # raise in the same order on doubly-malformed lines.
    exemplar = parse_exemplar(exemplar_text, lineno) if exemplar_text is not None else None
    return name, labels, value, timestamp_ms, exemplar


def parse(text: str) -> list[MetricFamily]:
    """Parse exposition text back into metric families.

    Families are keyed by name; TYPE/HELP comments ahead of samples
    attach metadata.  Unknown comment lines are ignored (Prometheus
    behaviour).
    """
    families: dict[str, MetricFamily] = {}

    def family(name: str) -> MetricFamily:
        if name not in families:
            families[name] = MetricFamily(name=name, type="untyped")
        return families[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = comment_parts(line, lineno)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family(parts[2]).type = parts[3]
            elif len(parts) >= 3 and parts[1] == "HELP":
                family(parts[2]).help = parts[3] if len(parts) > 3 else ""
            continue
        name, labels, value, timestamp_ms, exemplar = parse_sample_line(line, lineno)
        family(name).points.append(
            MetricPoint(labels=labels, value=value, timestamp_ms=timestamp_ms, exemplar=exemplar)
        )
    return list(families.values())


def to_labels(family_name: str, point: MetricPoint, extra: dict[str, str] | None = None) -> Labels:
    """Combine a parsed point with target labels into a series identity.

    ``extra`` (the scrape target's labels, e.g. ``instance``/``job``)
    loses against metric-own labels on conflict, matching Prometheus's
    ``honor_labels: true`` mode which CEEMS uses for exporter-supplied
    identity labels like ``uuid``.
    """
    merged: dict[str, str] = dict(extra or {})
    merged.update(point.labels)
    merged[METRIC_NAME_LABEL] = family_name
    return Labels(merged)
