"""The query answer as PromAPI wrote it before the text renderer.  Import-only.

``render_query`` and ``render_query_range`` are the ``render`` closures
of ``PromAPI._query`` / ``_query_range`` as they stood, followed by what
``_introspected`` did with their payload (``stats`` appended under
``stats=all``) and by ``Response.json``'s ``json.dumps(...).encode()``:
per-point Python lists, then one ``json.dumps`` pass over them.  They
share no formatting code with ``repro.tsdb.http``, so the production
renderer cannot pass the differential by agreeing with itself.

``value_text`` is the one hook: ``str`` (the default) is the old
spelling of every value, finite or not; the differential passes a
function that spells ``nan`` / ``inf`` / ``-inf`` the Prometheus way to
state what the renderer writes for non-finite values now.

Changes only if the response format itself is meant to.
"""

from __future__ import annotations

import json


def _body(payload: dict, stats: dict | None) -> bytes:
    if stats is not None:
        payload["stats"] = stats
    return json.dumps({"status": "success", "data": payload}).encode()


def render_query(result, stats: dict | None = None, value_text=str) -> bytes:
    """The body of an instant query's 200 answer."""
    if result.is_scalar:
        payload = {
            "resultType": "scalar",
            "result": [result.timestamp, value_text(result.scalar)],
        }
    else:
        payload = {
            "resultType": "vector",
            "result": [
                {
                    "metric": el.labels.as_dict(),
                    "value": [result.timestamp, value_text(el.value)],
                }
                for el in result.vector
            ],
        }
    return _body(payload, stats)


def render_query_range(result, stats: dict | None = None, value_text=str) -> bytes:
    """The body of a range query's 200 answer."""
    payload = {
        "resultType": "matrix",
        "result": [
            {
                "metric": labels.as_dict(),
                "values": [
                    [float(t), value_text(v)] for t, v in zip(ts.tolist(), vs.tolist())
                ],
            }
            for labels, (ts, vs) in sorted(
                result.series.items(), key=lambda kv: tuple(kv[0])
            )
        ],
    }
    return _body(payload, stats)
