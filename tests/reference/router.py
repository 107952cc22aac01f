"""The try-every-pattern route dispatch, kept as a differential-test oracle.

Every route's regex is tried in registration order: the first whose
path and method match serves the request; a path some route matched
under another method is a 405, any other a 404.  The production
:meth:`repro.common.httpx.Router.dispatch` finds literal patterns by a
dict lookup instead and must pick the same route, with the same path
parameters, for every request.  Import-only: nothing in ``src/`` can
select it.
"""

from __future__ import annotations

import urllib.parse

from repro.common.httpx import Request, Response, Router


def dispatch(router: Router, request: Request) -> Response:
    """Serve ``request`` from ``router``'s table by trying every route."""
    path_matched = False
    for method, regex, pattern, handler in router._routes:
        match = regex.match(request.path)
        if match is None:
            continue
        path_matched = True
        if method != request.method:
            continue
        request.path_params = {k: urllib.parse.unquote(v) for k, v in match.groupdict().items()}
        request.matched_route = pattern
        return handler(request)
    if path_matched:
        return Response.error(405, "method not allowed")
    return Response.error(404, f"no route for {request.path}")
