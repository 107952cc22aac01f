"""PromQL lexer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.common.errors import QueryError


class TokenType(Enum):
    IDENT = auto()  # metric names, keywords, function names
    NUMBER = auto()
    STRING = auto()
    DURATION = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    COLON = auto()  # subquery separator [range:step]
    OP = auto()  # + - * / % ^ == != >= <= > < =~ !~ =
    EOF = auto()


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    pos: int


KEYWORDS = frozenset(
    {
        "by",
        "without",
        "on",
        "ignoring",
        "group_left",
        "group_right",
        "offset",
        "bool",
        "and",
        "or",
        "unless",
    }
)

_PUNCTUATION = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
}

#: number+unit pairs: 15s, 5m, 1h30m…
_DURATION = re.compile(r"(\d+(?:\.\d+)?(?:ms|s|m|h|d|w|y))+")


def _is_ident_start(ch: str) -> bool:
    # ':' may appear *inside* recording-rule names but not start one
    # (Prometheus rule); a leading ':' is the subquery separator.
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in ("_", ":")


def tokenize(text: str) -> list[Token]:
    """Tokenize a PromQL expression.  Raises :class:`QueryError`."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n\r":
            i += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, start))
            i += 1
            continue
        # multi-char operators first
        two = text[i : i + 2]
        if two in ("==", "!=", ">=", "<=", "=~", "!~"):
            tokens.append(Token(TokenType.OP, two, start))
            i += 2
            continue
        if ch in "+-*/%^><=":
            tokens.append(Token(TokenType.OP, ch, start))
            i += 1
            continue
        if ch in ("'", '"'):
            quote = ch
            i += 1
            chars: list[str] = []
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    nxt = text[i + 1]
                    chars.append({"n": "\n", "t": "\t", quote: quote, "\\": "\\"}.get(nxt, nxt))
                    i += 2
                    continue
                chars.append(text[i])
                i += 1
            if i >= n:
                raise QueryError("unterminated string", position=start)
            i += 1  # closing quote
            tokens.append(Token(TokenType.STRING, "".join(chars), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # scientific notation
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            elif j < n and text[j].isalpha():  # duration suffix?
                k = j
                while k < n and text[k].isalnum():
                    k += 1
                if _DURATION.fullmatch(text, i, k):
                    tokens.append(Token(TokenType.DURATION, text[i:k], start))
                    i = k
                    continue
            try:
                float(text[i:j])
            except ValueError:
                raise QueryError(f"malformed number {text[i:j]!r}", position=start) from None
            tokens.append(Token(TokenType.NUMBER, text[i:j], start))
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token(TokenType.IDENT, text[i:j], start))
            i = j
            continue
        raise QueryError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
