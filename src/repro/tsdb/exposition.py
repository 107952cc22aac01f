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
import re
import threading
from dataclasses import dataclass, field
from typing import Iterable

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
        """Append a point over a label dict of its own — the cold-path
        convenience; a collector with several points per label set
        builds ``MetricPoint(labelset, value)`` over one shared dict."""
        self.points.append(MetricPoint(labels, value, timestamp_ms, exemplar))


class KeptFamilies:
    """A collector's families, kept between collects.

    A *row* is one series identity: a label dict the caller keeps (the
    same object on every collect while the series lives, as
    ``exposition.Body`` wants it) with at most one reading per family.
    :meth:`fill` writes a collect's readings into the points it made
    for each row the first time and rebuilds the families' point lists
    only when the rows, their order or the families they show up in
    differ from the previous fill.  The families are made once.
    """

    __slots__ = ("families", "_rows")

    def __init__(self, *heads: tuple[str, str, str]) -> None:
        #: The live families, one per ``(name, help, type)`` head.
        self.families = [MetricFamily(name, help, type) for name, help, type in heads]
        #: The rows of the previous fill, in order: (labels, one point
        #: per family, whether each family shows its point); ``None``
        #: after a fill that failed.
        self._rows: list[tuple[dict[str, str], list[MetricPoint], list[bool]]] | None = []

    def fill(self, rows: Iterable[tuple[dict[str, str], tuple[float | None, ...]]]) -> list[MetricFamily]:
        """Write ``rows`` into the families and return them.

        A row is ``(labels, readings)``: one reading per family, in
        family order, ``None`` where the series has no point in that
        family this time.  Points appear in each family in row order.
        """
        kept = self._rows
        # After a failed fill no row order is trusted: rebuild.
        shown_changed = kept is None
        if kept is None:
            kept = []
        size = len(kept)
        at = 0
        fresh = None  # the new row order, from the first row that moved
        try:
            for labels, readings in rows:
                if fresh is None and at < size and kept[at][0] is labels:
                    row = kept[at]
                    at += 1
                else:
                    if fresh is None:
                        fresh = kept[:at]
                        known = {id(row[0]): row for row in kept}
                    row = known.get(id(labels))
                    if row is None or row[0] is not labels:
                        width = len(self.families)
                        row = (labels, [MetricPoint(labels, 0.0) for _ in range(width)], [False] * width)
                    fresh.append(row)
                shown = row[2]
                for point, reading, was in zip(row[1], readings, shown):
                    if reading is not None:
                        point.value = reading
                        if not was:
                            break
                    elif was:
                        break
                else:
                    continue
                # The row shows up in other families than last time.
                shown[:] = [reading is not None for reading in readings]
                for point, reading in zip(row[1], readings):
                    if reading is not None:
                        point.value = reading
                shown_changed = True
        except BaseException:
            # Some rows may be half written: the next fill rebuilds.
            self._rows = None
            raise
        if fresh is None and at < size:
            fresh = kept[:at]
        if fresh is not None or shown_changed:
            rows = self._rows = kept if fresh is None else fresh
            for j, family in enumerate(self.families):
                family.points = [row[1][j] for row in rows if row[2][j]]
        return self.families


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _family_header(name: str, help: str, type: str) -> str:
    if help:
        return f"# HELP {name} {_escape_help(help)}\n# TYPE {name} {type}"
    return f"# TYPE {name} {type}"


def _label_set(labels: dict[str, str]) -> str:
    """``{k="escaped v",...}``, keys sorted."""
    return "{" + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())) + "}"


def _render_exemplar(exemplar: Exemplar) -> str:
    """The ``# {labels} value [ts]`` suffix of an exemplar-carrying line.

    Computed once per :class:`Exemplar` and kept on it: a metric holds
    the same exemplar object until a new observation replaces it, so a
    rebuild around an unchanged slot costs one attribute read.  The
    text is a pure function of the exemplar, so cold and warm renders
    stay byte-identical.
    """
    suffix = exemplar._suffix
    if suffix is None:
        suffix = f"# {_label_set(exemplar.labels)} {_format_value(exemplar.value)}"
        if exemplar.timestamp is not None:
            suffix = f"{suffix} {_format_value(exemplar.timestamp)}"
        exemplar._suffix = suffix
    return suffix


def _sample_line(
    skeleton: str, value: float, timestamp_ms: int | None, exemplar: Exemplar | None
) -> str:
    """The one place a sample line is put together."""
    line = f"{skeleton} {_format_value(value)}"
    if timestamp_ms is not None:
        line = f"{line} {timestamp_ms}"
    if exemplar is not None:
        line = f"{line} {_render_exemplar(exemplar)}"
    return line


class Body:
    """The body a ``/metrics`` endpoint last served, kept so that the
    next one costs the readings that changed — the render-side dual of
    the scrape manager's ``_Layout``.

    Per line it remembers the text and, for a sample line, what the
    text was rendered from: the ``name{labels}`` skeleton, the label
    dict, the value and the exemplar.  There are two ways to take new
    families and never a third:

    * **refill** — the same families in the same order, each with the
      same name, help, type and point count, every point's labels the
      remembered dict (the same object, or else an equal one) and no
      point carrying a ``timestamp_ms``: only lines whose value
      changed, or whose exemplar is another object, are formatted
      again;
    * **rebuild** — anything else: every line, through the same
      :func:`_sample_line`.

    Both produce exactly the bytes of ``render(families)``, which is
    itself a throw-away ``Body``'s rebuild.  What makes the refill
    sound is the contract :mod:`repro.obs.registry` states for its own
    points: a label dict or an :class:`Exemplar` is **read-only once
    rendered** — to change a series' labels hand over another dict, to
    change an exemplar attach another object.  A dict mutated in place
    is still "the remembered dict" and keeps its old skeleton.

    One ``Body`` belongs to one endpoint; ``render`` serialises its
    callers (an app behind ``serve_threading`` renders from several
    threads).
    """

    __slots__ = ("_lock", "_heads", "_lines", "_skeletons", "_labels", "_values", "_exemplars", "refills", "rebuilds")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Per family ``(name, help, type, point count)``; ``None``
        #: while there is no body a refill may trust.
        self._heads: list[tuple[str, str, str, int]] | None = None
        #: One entry per family header and per sample line, in body
        #: order; the four lists after it are indexed alike and hold
        #: ``None`` at a header.
        self._lines: list[str] = []
        self._skeletons: list[str | None] = []
        self._labels: list[dict[str, str] | None] = []
        self._values: list[float | None] = []
        self._exemplars: list[Exemplar | None] = []
        #: Bodies served each way.
        self.refills = 0
        self.rebuilds = 0

    def render(self, families: list[MetricFamily]) -> str:
        """Exposition text of ``families``."""
        with self._lock:
            if self._heads is not None and self._refill(families):
                self.refills += 1
            else:
                self._rebuild(families)
                self.rebuilds += 1
            return "\n".join(self._lines) + "\n"

    def _refill(self, families: list[MetricFamily]) -> bool:
        """Fit ``families`` into the remembered body.  ``False`` at the
        first thing that is not where it was — some slots may already
        be up to date by then; the rebuild that must follow replaces
        them all."""
        heads = self._heads
        if len(families) != len(heads):
            return False
        lines = self._lines
        skeletons = self._skeletons
        known = self._labels
        values = self._values
        exemplars = self._exemplars
        at = 0  # the family's header line
        for family, (name, help, type, count) in zip(families, heads):
            points = family.points
            if len(points) != count or family.name != name or family.help != help or family.type != type:
                return False
            for i, point in enumerate(points, at + 1):
                labels = point.labels
                if labels is not known[i] and labels != known[i]:
                    return False
                if point.timestamp_ms is not None:
                    return False
                value = point.value
                exemplar = point.exemplar
                if value != values[i] or exemplar is not exemplars[i]:
                    lines[i] = _sample_line(skeletons[i], value, None, exemplar)
                    values[i] = value
                    exemplars[i] = exemplar
            at += count + 1
        return True

    def _rebuild(self, families: list[MetricFamily]) -> None:
        """Format every line and remember what it was formatted from."""
        heads: list[tuple[str, str, str, int]] = []
        lines: list[str] = []
        skeletons: list[str | None] = []
        known: list[dict[str, str] | None] = []
        values: list[float | None] = []
        exemplars: list[Exemplar | None] = []
        stamped = False
        for family in families:
            name = family.name
            heads.append((name, family.help, family.type, len(family.points)))
            lines.append(_family_header(name, family.help, family.type))
            skeletons.append(None)
            known.append(None)
            values.append(None)
            exemplars.append(None)
            for point in family.points:
                labels = point.labels
                skeleton = f"{name}{_label_set(labels)}" if labels else name
                lines.append(_sample_line(skeleton, point.value, point.timestamp_ms, point.exemplar))
                skeletons.append(skeleton)
                known.append(labels)
                values.append(point.value)
                exemplars.append(point.exemplar)
                stamped = stamped or point.timestamp_ms is not None
        # A refill formats no timestamp, so it may not start from a
        # body that shows one.
        self._heads = None if stamped else heads
        self._lines = lines
        self._skeletons = skeletons
        self._labels = known
        self._values = values
        self._exemplars = exemplars


def render(families: list[MetricFamily]) -> str:
    """Render metric families to exposition text."""
    return Body().render(families)


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


def _closing_brace(rest: str) -> int:
    """Where the label set whose ``{`` was just consumed closes: the
    first ``}`` outside quoted values (which may legally contain one),
    or ``-1``."""
    quote = False
    escaped = False
    for idx, ch in enumerate(rest):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
        elif ch == '"':
            quote = not quote
        elif ch == "}" and not quote:
            return idx
    return -1


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


#: The suffix every exporter in this stack emits: one label whose value
#: needs no unescaping, a single space either side, one number, no
#: timestamp.  ``\w`` and ``\S`` are the character classes that
#: ``_parse_labels`` (``isalnum`` or ``_``) and ``str.split`` use.
_PLAIN_EXEMPLAR = re.compile(r'# \{(\w+)="([^"\\]*)"\} (\S+)')


def parse_exemplar(text: str, lineno: int = 0) -> Exemplar:
    """Parse an exemplar suffix (``text`` starts at the ``#``).

    The plain shape is matched at C speed; it is a sub-grammar of the
    scan below, which reads everything else (and is what the frozen
    copy in ``tests/reference/exposition.py`` holds both lanes to).
    """
    plain = _PLAIN_EXEMPLAR.fullmatch(text)
    if plain is not None:
        name, label_value, token = plain.groups()
        return Exemplar({name: label_value}, _parse_number(token, lineno))
    body = text[1:].lstrip()
    if not body.startswith("{"):
        raise ScrapeError(f"line {lineno}: exemplar must carry a {{...}} label set")
    rest = body[1:]
    end = _closing_brace(rest)
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
        end = _closing_brace(rest)
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
