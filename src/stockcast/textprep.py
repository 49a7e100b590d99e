"""Tweet/news text cleaning ahead of sentiment scoring.

Fixed pipeline order:

    1. strip URLs
    2. strip hashtags, mentions, platform reserved words (RT/FAV/via);
       cashtags are normalized to the bare ticker (or stripped, see
       ``keep_cashtags``)
    3. strip emoji and pictographic symbols
    4. lowercase
    5. delete punctuation, special characters and digits
    6. remove stopwords (and any reserved word the punctuation pass
       may have reassembled, which keeps cleaning idempotent)
    7. collapse whitespace

Output is lowercase words separated by single spaces; an empty string is
a valid result.

A pass is skipped where skipping it cannot change the result:

- The URL, cashtag, hashtag and mention passes run only when the text
  holds ``http`` or ``www.``, ``$``, ``#`` or ``@``; each pattern starts
  with one of these, so without it the pass matches nothing.
- The reserved-word and emoji passes run only on non-ASCII text. The
  emoji class holds no ASCII character. On ASCII text the reserved-word
  pass removes an rt, fav or via (any letter case) standing between
  whitespace; such a token stays whole through steps 4-5, and step 6
  drops it anyway. On other text the pass must run: under
  ``re.IGNORECASE`` it also matches "vıa" (dotless i), which step 5 would
  otherwise shorten to "va".
- On ASCII text steps 4 and 5 are one ``str.translate`` through a table
  built from the same two steps applied to each ASCII character; other
  text is lowercased first, because lowercasing "İ" or the Kelvin sign
  yields ASCII letters.
- Step 7 is ``str.split()``: after step 5 only a-z and whitespace
  remain, and ``str.split`` splits on exactly the characters the
  pattern's whitespace class matches (``str.isspace``).
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import open_text

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
_HASHTAG_RE = re.compile(r"#\S+")
_MENTION_RE = re.compile(r"@\S+")
_CASHTAG_RE = re.compile(r"\$([A-Za-z][A-Za-z0-9]*)")
_CASHTAG_STRIP_RE = re.compile(r"\$[A-Za-z]\S*")

# Platform tokens carrying no sentiment: retweet/favourite markers and the
# attribution particle.
RESERVED_WORDS = frozenset({"rt", "fav", "via"})

_RESERVED_RE = re.compile(
    r"(?<!\S)(?:" + "|".join(sorted(RESERVED_WORDS)) + r")(?!\S)", re.IGNORECASE
)

# Pictographic blocks: emoticons, symbols, transport, flags, supplemental
# symbols, dingbats, plus variation selector and ZWJ used in sequences.
_EMOJI_RE = re.compile(
    "["
    "\U0001F1E6-\U0001F1FF"
    "\U0001F300-\U0001FAFF"
    "☀-➿"
    "⬀-⯿"
    "️"
    "‍"
    "]"
)

_NON_ALPHA_RE = re.compile(r"[^a-z\s]+")

# Steps 4-5 for one ASCII character at a time: lowercase, then keep only
# a-z and whitespace. Both steps map ASCII characters independently. A
# deleted character maps to None, not "": only then does str.translate
# take its fast path for ASCII text (twice as fast, measured).
_ASCII_LOWER_ALPHA = str.maketrans(
    {chr(c): _NON_ALPHA_RE.sub("", chr(c).lower()) or None for c in range(128)}
)


def load_stopwords(path=None):
    """Load the stopword set: one lowercase word per line, '#' comments.

    Lines end where text-mode reading ends them (``errors.line_ends``), so
    a ``\\x85`` or ``\\u2028`` inside a line leaves it one word. Without
    a path, the bundled English list is used.
    """
    if path is None:
        path = resources.files("stockcast.resources").joinpath("stopwords.txt")
    with open_text(path) as fh:
        words = {line.split("#", 1)[0].strip().lower() for line in fh.readlines()}
    return frozenset(words - {""})


def clean_text(raw, stopwords, keep_cashtags=True):
    """Clean one raw post text down to lowercase word tokens.

    Args:
        raw: the post text as collected.
        stopwords: set of lowercase words to drop.
        keep_cashtags: when True, "$MSFT" survives as the token "msft";
            when False the whole cashtag is stripped like a hashtag.

    Returns:
        Cleaned string; possibly empty.
    """
    # Each guard is a character the pattern needs (see the module docstring).
    text = raw
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "$" in text:
        if keep_cashtags:
            text = _CASHTAG_RE.sub(r"\1", text)
        else:
            text = _CASHTAG_STRIP_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    # Deleting (not spacing) keeps "don't" a single token; whitespace is
    # preserved as the token separator.
    if text.isascii():
        text = text.translate(_ASCII_LOWER_ALPHA)
    else:
        text = _RESERVED_RE.sub(" ", text)
        text = _EMOJI_RE.sub("", text)
        text = _NON_ALPHA_RE.sub("", text.lower())
    tokens = [
        tok
        for tok in text.split()
        if tok not in stopwords and tok not in RESERVED_WORDS
    ]
    return " ".join(tokens)


__all__ = ["clean_text", "load_stopwords", "RESERVED_WORDS"]
