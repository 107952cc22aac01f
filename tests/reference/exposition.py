"""The exposition text's two frozen oracles.  Import-only.

``render`` is the stateless renderer as it stood before PR 23 made it
a throw-away ``Body``'s rebuild — the same loop and the same helper
bodies, minus the three memo dicts (which only ever cached what the
helpers below compute) and the suffix an ``Exemplar`` keeps.  It shares
no formatting code with ``repro.tsdb.exposition``: a ``Body`` refill,
a ``Body`` rebuild and the production ``render`` must all produce
exactly these bytes, so a slip in ``_sample_line``, ``_label_set`` or
``_format_value`` cannot pass by agreeing with itself.

``parse_exemplar`` is the character scan that read every exemplar
suffix until PR 23; the production function now matches the one-label,
no-escape shape with a regular expression first and shares its
closing-brace scan with ``parse_sample_line``.  Both lanes must return
the same ``Exemplar`` or raise the same ``ScrapeError`` text as this
copy.

Either changes only if the text format itself is meant to.
"""

from __future__ import annotations

import math

from repro.common.errors import ScrapeError
from repro.tsdb.exposition import Exemplar, MetricFamily, _parse_labels, _parse_number


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


def _series_skeleton(name: str, labels: dict[str, str]) -> str:
    label_str = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items()))
    return f"{name}{{{label_str}}}"


def _render_exemplar(exemplar: Exemplar) -> str:
    """``# {labels} value [timestamp]``, computed afresh: the suffix
    production keeps on the exemplar is neither read nor written."""
    label_str = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(exemplar.labels.items())
    )
    suffix = f"# {{{label_str}}} {_format_value(exemplar.value)}"
    if exemplar.timestamp is not None:
        suffix = f"{suffix} {_format_value(exemplar.timestamp)}"
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
