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

Output is a list of lowercase words (``clean_tokens``), which may be
empty; ``clean_text`` joins it with single spaces.

A pass is skipped where skipping it cannot change the result:

- The URL, cashtag, hashtag and mention passes run only when the text
  holds ``http`` or ``www.``, ``$``, ``#`` or ``@``; each pattern starts
  with one of these, so without it the pass matches nothing.
- The emoji pass runs only on non-ASCII text: the emoji class holds no
  ASCII character. The reserved-word pass runs only on text holding a
  dotless "ı" or a dotted "İ", the only characters outside ASCII that
  ``re.IGNORECASE`` matches to a letter of rt, fav or via. Elsewhere it
  removes an rt, fav or via (any ASCII letter case) standing between
  whitespace; such a token stays whole through steps 3-5, which delete
  no whitespace, and step 6 drops it anyway. With those two characters it
  must run: it also matches "vıa", which step 5 would otherwise shorten
  to "va".
- On ASCII text, which is what most emoji posts are once their emoji are
  gone, steps 4 and 5 are one ``str.translate`` through a table built
  from the same two steps applied to each ASCII character; other text is
  lowercased first, because lowercasing "İ" or the Kelvin sign yields
  ASCII letters.
- Step 7 is ``str.split()``: after step 5 only a-z and whitespace
  remain, and ``str.split`` splits on exactly the characters the
  pattern's whitespace class matches (``str.isspace``).
"""

from __future__ import annotations

import re
from importlib import resources

from .ingest import text_lines

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
_HASHTAG_RE = re.compile(r"#\S+")
_MENTION_RE = re.compile(r"@\S+")
# "$MSFT" -> "MSFT": deleting each "$" before a letter is the same as
# replacing each "$" + letter + [A-Za-z0-9]* run by the run (such a run holds
# no "$"), and an empty replacement is applied without a Python call per match.
_CASHTAG_RE = re.compile(r"\$(?=[A-Za-z])")
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

    Lines are read by ``ingest.text_lines``, which ends them where text
    mode does, so a ``\\x85`` or ``\\u2028`` inside a line leaves it one
    word. Without a path, the bundled English list is used.
    """
    if path is None:
        path = resources.files("stockcast.resources").joinpath("stopwords.txt")
    words = {line.split("#", 1)[0].strip().lower() for line in text_lines(path)}
    return frozenset(words - {""})


def clean_tokens(raw, stopwords, keep_cashtags=True):
    """Clean one raw post text down to its lowercase word tokens.

    Args:
        raw: the post text as collected.
        stopwords: set of lowercase words to drop.
        keep_cashtags: when True, "$MSFT" survives as the token "msft";
            when False the whole cashtag is stripped like a hashtag.

    Returns:
        The list of tokens, in text order; possibly empty.
    """
    # Each guard is a character the pattern needs (see the module docstring).
    text = raw
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "$" in text:
        if keep_cashtags:
            text = _CASHTAG_RE.sub("", text)
        else:
            text = _CASHTAG_STRIP_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    # Deleting (not spacing) keeps "don't" a single token; whitespace is
    # preserved as the token separator.
    if not text.isascii():
        if "\u0131" in text or "\u0130" in text:  # see the module docstring
            text = _RESERVED_RE.sub(" ", text)
        text = _EMOJI_RE.sub("", text)
    if text.isascii():
        text = text.translate(_ASCII_LOWER_ALPHA)
    else:
        text = _NON_ALPHA_RE.sub("", text.lower())
    tokens = text.split()
    # Many posts hold no word to drop; two set checks in C find them, and
    # such a post keeps its split list.
    if stopwords.isdisjoint(tokens) and RESERVED_WORDS.isdisjoint(tokens):
        return tokens
    return [tok for tok in tokens if tok not in stopwords and tok not in RESERVED_WORDS]


def clean_text(raw, stopwords, keep_cashtags=True):
    """clean_tokens' tokens joined by single spaces: the cleaned text, possibly empty.

    Ingest scores the tokens; this text form is what the scoring tests'
    reference formulation cleans to.
    """
    return " ".join(clean_tokens(raw, stopwords, keep_cashtags))


__all__ = ["clean_tokens", "load_stopwords", "RESERVED_WORDS"]
