"""Text cleaning pipeline: worked examples and invariants."""

import re

from hypothesis import given, settings, strategies as st

from stockcast.textprep import RESERVED_WORDS, clean_text, load_stopwords

EMPTY = frozenset()


class TestCleanText:
    def test_full_pipeline_trace(self):
        raw = "Check $MSFT!! 🚀 https://t.co/x #stocks @user"
        assert clean_text(raw, EMPTY) == "check msft"

    def test_empty_input(self):
        assert clean_text("", EMPTY) == ""

    def test_stopwords_and_lowercase(self):
        assert clean_text("The the THE", frozenset({"the"})) == ""

    def test_cashtag_stripped_when_flag_off(self):
        raw = "Check $MSFT!! 🚀 https://t.co/x #stocks @user"
        assert clean_text(raw, EMPTY, keep_cashtags=False) == "check"

    def test_reserved_words_removed(self):
        assert clean_text("RT @user via FAV nothing", EMPTY) == "nothing"

    def test_digits_and_punctuation_deleted_not_spaced(self):
        # deletion keeps contractions as one token
        assert clean_text("don't stop 2023", EMPTY) == "dont stop"

    def test_urls_gone(self):
        assert clean_text("see www.example.com/x?y=1 now", EMPTY) == "see now"

    def test_emoji_blocks_stripped(self):
        assert clean_text("up 🚀🔥 ☀ big", EMPTY) == "up big"


# Hypothesis feeds arbitrary unicode, including whitespace oddities,
# emoji and recombined tokens (e.g. "v.i.a" -> "via").
text_strategy = st.text(max_size=80)
stopword_strategy = st.frozensets(st.sampled_from(["the", "a", "via", "stock", "x"]),
                                  max_size=5)


@settings(max_examples=300)
@given(text_strategy, stopword_strategy)
def test_idempotent(raw, stopwords):
    once = clean_text(raw, stopwords)
    assert clean_text(once, stopwords) == once


@settings(max_examples=300)
@given(text_strategy, stopword_strategy)
def test_output_alphabet(raw, stopwords):
    out = clean_text(raw, stopwords)
    assert re.fullmatch(r"[a-z ]*", out)
    assert "  " not in out and out == out.strip()


@settings(max_examples=300)
@given(text_strategy, stopword_strategy)
def test_token_count_never_increases(raw, stopwords):
    assert len(clean_text(raw, stopwords).split()) <= len(raw.split())


@settings(max_examples=200)
@given(text_strategy)
def test_no_stopwords_or_reserved_in_output(raw):
    stopwords = load_stopwords()
    tokens = clean_text(raw, stopwords).split()
    assert not (set(tokens) & stopwords)
    assert not (set(tokens) & RESERVED_WORDS)


class TestStopwordFile:
    def test_bundled_list_loads(self):
        words = load_stopwords()
        assert "the" in words and len(words) > 50

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("# comment\nthe\n\na  # trailing\n")
        assert load_stopwords(path) == {"the", "a"}


# --- differential check against the unguarded chain -------------------------
# The cleaner skips passes that cannot change the text (see the textprep
# docstring). The reference below is the chain that runs every pass on every
# text, kept verbatim; the two must agree on every input.

_REF_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
_REF_HASHTAG_RE = re.compile(r"#\S+")
_REF_MENTION_RE = re.compile(r"@\S+")
_REF_CASHTAG_RE = re.compile(r"\$([A-Za-z][A-Za-z0-9]*)")
_REF_CASHTAG_STRIP_RE = re.compile(r"\$[A-Za-z]\S*")
_REF_RESERVED_RE = re.compile(
    r"(?<!\S)(?:" + "|".join(sorted(RESERVED_WORDS)) + r")(?!\S)", re.IGNORECASE
)
_REF_EMOJI_RE = re.compile(
    "["
    "\U0001F1E6-\U0001F1FF"
    "\U0001F300-\U0001FAFF"
    "☀-➿"
    "⬀-⯿"
    "️"
    "‍"
    "]"
)
_REF_NON_ALPHA_RE = re.compile(r"[^a-z\s]+")
_REF_WS_RE = re.compile(r"\s+")


def reference_clean_text(raw, stopwords, keep_cashtags=True):
    text = _REF_URL_RE.sub(" ", raw)
    if keep_cashtags:
        text = _REF_CASHTAG_RE.sub(r"\1", text)
    else:
        text = _REF_CASHTAG_STRIP_RE.sub(" ", text)
    text = _REF_HASHTAG_RE.sub(" ", text)
    text = _REF_MENTION_RE.sub(" ", text)
    text = _REF_RESERVED_RE.sub(" ", text)
    text = _REF_EMOJI_RE.sub("", text)
    text = text.lower()
    text = _REF_NON_ALPHA_RE.sub("", text)
    tokens = [
        tok
        for tok in _REF_WS_RE.split(text)
        if tok and tok not in stopwords and tok not in RESERVED_WORDS
    ]
    return " ".join(tokens)


# Pieces that each trigger or defeat one guard: the characters a pass needs,
# reserved words in mixed case, letters whose case mapping leaves ASCII
# (dotless and dotted i, long s, Kelvin sign), emoji, the ASCII separators
# \x1c-\x1f that count as whitespace, and non-ASCII spaces.
FRAGMENTS = [
    "$", "#", "@", "http", "https://t.co/x", "http://", "www.", "www.x.com/a",
    "$MSFT", "$msft9", "#tag", "@user", "rt", "RT", "Rt", "rT", "fav", "FaV",
    "via", "VIA", "v\u0131a", "V\u0130A", "\u0131", "\u0130", "\u017f", "\u212a",
    "\U0001F680", "\U0001F4C9", "\u2600", "\ufe0f", "\u200d",
    "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u3000",
    " ", "  ", "\t", "\n", ".", "'", "don't", "2023", "the", "Stock", "a",
]
mixed_text = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)), max_size=14
).map("".join)


@settings(max_examples=300)
@given(mixed_text, stopword_strategy, st.booleans())
def test_matches_unguarded_chain(raw, stopwords, keep_cashtags):
    assert clean_text(raw, stopwords, keep_cashtags) == reference_clean_text(
        raw, stopwords, keep_cashtags)


def test_matches_unguarded_chain_on_every_ascii_and_fragment():
    stopwords = load_stopwords()
    pieces = [chr(c) for c in range(128)] + FRAGMENTS
    for left in pieces:
        for right in ("", " x", "rt", "A", "\x1f"):
            for keep in (True, False):
                raw = f"{left}{right} {left}via{right}"
                assert clean_text(raw, stopwords, keep) == reference_clean_text(
                    raw, stopwords, keep), repr(raw)
