"""Fuzz the extract kernel's RE2 scan against its reference path: every
pattern RE2 takes through Arrow must find exactly the matches a per-span
``re.finditer`` finds, so both emit byte-identical records — including
texts with embedded or trailing newlines, non-ASCII words, the marker
characters, word boundaries at span edges, and custom detectors RE2
reads differently (which the gate must send to ``re``)."""

import re

import numpy as np
import pyarrow as pa
import pytest

from kgeng.config import DetectConfig
from kgeng.ops.extract import Extract, _re2_exact, _re2_texts
from kgeng.synth.corpus import SPAN_TYPE


def _random_docs(rng, n_docs: int) -> pa.Table:
    words = ["alpha", "beta", "Gamma", "Delta", "Acme", "Corp", "x",
             "Bob", "Smith", "mail@test.io", "ABC-42", "2024-01-02",
             "über", "naïve", ",", ".", "--", "(ok)", "xx", "axxb",
             # Python \w \d \b are Unicode-aware, RE2's ASCII: spans
             # holding these must take the re path
             "josé@example.com", "müller@host.de", "１２３４-01-02",
             "٢٠٢٠-01-02", "Émile Zola",
             # the scan's marker (and its neighbour) inside a span
             "a\x00b", "Bob\x01Smith", "\x00Ada Lovelace\x00",
             "ID\x01-7"]
    caps = ["Ada Lovelace", "Acme Corp", "New York City", "Bob Smith",
            "Émile Zola"]
    preds = [" works at ", " is located in ", " lives in ", " founded "]
    rows = []
    for d in range(n_docs):
        spans = []
        offset = 0
        for s in range(int(rng.integers(1, 6))):
            if rng.random() < 0.2:
                spans.append({"kind": "image", "text": "",
                              "media_ref": f"media://f{d}-{s}",
                              "offset": offset})
                offset += 1
                continue
            # a one-token span puts a word boundary at both span edges
            toks = list(rng.choice(words, size=int(rng.integers(1, 12))))
            if rng.random() < 0.6:
                toks.insert(int(rng.integers(0, len(toks))),
                            str(rng.choice(caps)))
            if rng.random() < 0.4:
                toks.insert(int(rng.integers(0, len(toks))),
                            str(rng.choice(caps))
                            + str(rng.choice(preds))
                            + str(rng.choice(caps)))
            text = " ".join(toks)
            if rng.random() < 0.3:  # embedded newline mid-text
                cut = int(rng.integers(0, len(text)))
                text = text[:cut] + "\n" + text[cut:]
            if rng.random() < 0.2:  # '$' also matches before this one
                text += "\n"
            spans.append({"kind": "text", "text": text,
                          "media_ref": "", "offset": offset})
            offset += len(text) + 1
        rows.append({"doc_id": f"fz-{d:04d}", "spans": spans})
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows]),
        "spans": pa.array([r["spans"] for r in rows],
                          pa.list_(SPAN_TYPE)),
    })


def _rows(t: pa.Table) -> set:
    return set(zip(*[t[c].to_pylist() for c in t.column_names]))


def _per_span(gaz, cfg=None) -> Extract:
    """The same detector with every pattern on the per-span ``re`` path,
    the reference semantics."""
    ex = Extract(gaz, cfg)
    ex.cap_run = (ex.cap_run[0], False)
    ex.phrase_re = (ex.phrase_re[0], False)
    ex.detectors = [(n, (rex, False)) for n, (rex, _ok) in ex.detectors]
    return ex


def _all_on_re2(ex: Extract) -> bool:
    return (ex.cap_run[1] and ex.phrase_re[1]
            and all(ok for _n, (_r, ok) in ex.detectors))


def test_megastring_equals_per_span_scan():
    gaz = {"Ada Lovelace": ("E1", "PERSON"), "Acme Corp": ("E2", "ORG"),
           "New York City": ("E3", "LOC")}
    rng = np.random.default_rng(77)
    batch = _random_docs(rng, 300)

    fast = Extract(gaz)
    assert _all_on_re2(fast)
    slow = _per_span(gaz)

    assert _rows(fast(batch)) == _rows(slow(batch))
    assert fast(batch).equals(slow(batch))


def test_prefilter_only_differs_in_skipping_nothing():
    gaz = {"Bob Smith": ("E9", "PERSON")}
    rng = np.random.default_rng(123)
    batch = _random_docs(rng, 200)
    with_pf = Extract(gaz)
    no_pf = _per_span(gaz)
    assert _rows(with_pf(batch)) == _rows(no_pf(batch))


def _one_text_batch(text: str) -> pa.Table:
    spans = [{"kind": "text", "text": text, "media_ref": "", "offset": 0}]
    return pa.table({"doc_id": pa.array(["u-0"]),
                     "spans": pa.array([spans], pa.list_(SPAN_TYPE))})


def test_prefilter_keeps_unicode_email_span():
    """'josé@example.com' matches the EMAIL detector under Python re but
    not under RE2's ASCII \\w; the span must take the re path, not lose
    the match."""
    ex = Extract({})
    assert dict(ex.detectors)["EMAIL"][1]
    out = ex(_one_text_batch("Contact: josé@example.com today"))
    surfaces = out["surface"].to_pylist()
    assert "josé@example.com" in surfaces


def test_exotic_detectors_fall_back_soundly():
    """Anchored / complement-shorthand detectors match per span: '^'
    at each span start, and no match across two spans."""
    cfg = DetectConfig(regex_detectors=(
        ("LINENO", r"^\d+"),          # anchored: one hit per span start
        ("NONDIGIT", r"X\D\d"),       # \D matches '\n': must not cross
    ))
    ex = Extract({}, cfg)
    assert _all_on_re2(ex)
    spans = [{"kind": "text", "text": "42 things", "media_ref": "",
              "offset": 0},
             {"kind": "text", "text": "X", "media_ref": "", "offset": 10},
             {"kind": "text", "text": "7 more", "media_ref": "",
              "offset": 12}]
    batch = pa.table({"doc_id": pa.array(["a-0"]),
                      "spans": pa.array([spans], pa.list_(SPAN_TYPE))})
    out = ex(batch)
    hits = {(s, e) for s, e in zip(out["surface"].to_pylist(),
                                   out["ent_type"].to_pylist())
            if e in ("LINENO", "NONDIGIT")}
    # per-span semantics: '^\d+' matches at each span start; 'X\D\d'
    # never matches inside any single span (the X span has no digit)
    assert ("42", "LINENO") in hits and ("7", "LINENO") in hits
    assert not any(e == "NONDIGIT" for _s, e in hits)
    assert out.equals(_per_span({}, cfg)(batch))


def test_phrase_scan_matches_named_group_reference():
    """The phrase alternation carries no named groups; the matched text
    maps back to its predicate. Every span's (offset, predicate) list
    equals the one the named-group alternation gives, through the RE2
    scan and the per-span ``re`` path."""
    from kgeng.synth.corpus import PRED_PHRASES

    by_len = sorted(PRED_PHRASES.items(), key=lambda kv: -len(kv[1]))
    ref = re.compile("|".join(f"(?P<{p}>{re.escape(s)})"
                              for p, s in by_len))
    phrases = list(PRED_PHRASES.values())
    rng = np.random.default_rng(5)
    texts = [
        "A" + "B".join(phrases) + "C",              # every phrase
        # nested and overlapping: phrases sharing their edge spaces,
        # repeated back to back, and inside longer words
        " works for works for  founded partnered with acquired ",
        "X is located in founded Y acquired  acquired Z",
        "unfounded  founded  refounded acquiredness is located inn",
        "",
    ]
    pieces = phrases + [p.strip() for p in phrases] + [
        " ", "Ada", "Acme Corp", " is ", " located", " in ", "for ",
        "über", "x"]
    for _ in range(300):
        texts.append("".join(
            str(rng.choice(pieces))
            for _ in range(int(rng.integers(0, 12)))))

    def want(text):
        return [(m.start(), m.lastgroup) for m in ref.finditer(text)]

    ex = Extract({})
    pred_of = dict(zip(ex.phrase_text.to_pylist(),
                       ex.phrase_pred.to_pylist()))
    arr = pa.array(texts)
    for exact in (True, False):
        span_i, off, surf = ex._find((ex.phrase_re[0], exact), arr,
                                     _re2_texts(arr))
        got: list[list] = [[] for _ in texts]
        for i, o, s in zip(span_i.tolist(), off.tolist(), surf.to_pylist()):
            got[i].append((o, pred_of[s]))
        assert got == [want(t) for t in texts]
    assert sum(map(len, (want(t) for t in texts))) > 300


# (detector, a text on which RE2 and Python ``re`` find different matches)
_RE2_DIFFERS_ON = [
    (r"x*", "axxb"),                 # empty matches step differently
    (r"\w+$", "end\n"),              # Python's '$' matches before '\n'
    (r"\w+\Z", "end"),               # RE2 has no \Z
    (r"[A-Z]\w+(?=,)", "Ada, Bob"),  # RE2 has no lookaround
    (r"(\w)\1", "aab"),              # nor backreferences
    (r"\d\s\d", "1\x0b2"),           # Python's \s takes '\v'
    (r"\d\S\d", "1\x1c2"),           # ... and '\x1c'-'\x1f'
    (r"ab{,2}", "abb"),              # a repeat in Python, text in RE2
    (r"[[:alpha:]]+", "abc"),        # a POSIX class only in RE2
]


@pytest.mark.parametrize("pattern,text", _RE2_DIFFERS_ON)
def test_gate_sends_what_re2_reads_differently_to_re(pattern, text):
    """Each gated pattern is one whose forced RE2 scan (where Arrow
    compiles it) finds other matches than ``re`` on an ASCII text; the
    gate keeps it on the per-span ``re`` path."""
    assert not _re2_exact(pattern)
    arr = pa.array([text])
    assert _re2_texts(arr).all()
    want = [(m.start(), m.group()) for m in re.finditer(pattern, text)]
    try:
        pos, off, surf = Extract._find((re.compile(pattern), True), arr,
                                       _re2_texts(arr))
    except pa.ArrowException:
        return   # RE2 cannot compile it at all
    assert list(zip(off.tolist(), surf.to_pylist())) != want


_CUSTOM = (("EOL", r"\w+$"), ("XS", r"x*"), ("LOOK", r"[A-Z]\w+(?= )"),
           ("SP", r"\w\s\w"), ("BOUND", r"\b\w+\b"), ("WORD", r"\w+@\w+"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_re2_scan_matches_per_span_reference(seed):
    """The whole kernel with custom detectors (a '$' detector on spans
    ending in '\\n', an empty-matching one, a lookahead, '\\s', '\\b'
    at span edges, Unicode '\\w') gives the records of the per-span
    ``re`` reference, record for record."""
    cfg = DetectConfig(regex_detectors=DetectConfig().regex_detectors
                       + _CUSTOM)
    gaz = {"Ada Lovelace": ("E1", "PERSON"), "Acme Corp": ("E2", "ORG"),
           "Émile Zola": ("E4", "PERSON")}
    batch = _random_docs(np.random.default_rng(seed), 250)
    fast = Extract(gaz, cfg)
    on_re2 = {n for n, (_r, ok) in fast.detectors if ok}
    assert on_re2 == {"DATE", "EMAIL", "ID", "BOUND", "WORD"}
    got, want = fast(batch), _per_span(gaz, cfg)(batch)
    assert got.equals(want)
    kinds = set(got["ent_type"].to_pylist())
    assert {"EOL", "XS", "LOOK", "SP", "BOUND", "WORD"} <= kinds
    # the edge cases really occur: non-ASCII surfaces, marker spans
    surfaces = set(got["surface"].to_pylist())
    assert "Émile" in surfaces and "josé@example" in surfaces
    assert "" in surfaces   # XS's empty matches


def test_scan_handles_marker_and_null_texts():
    """Texts holding the marker, null texts and empty texts: the RE2
    scan skips the first two kinds of spans without losing matches."""
    texts = pa.array(["Ada Lovelace\x00 and Bob Smith", None, "",
                      "Bob\x01Smith met Ada Lovelace", "Acme Corp"])
    ok = _re2_texts(texts.fill_null(""))
    assert ok.tolist() == [False, True, True, True, True]
    ex = Extract({})
    got = ex._find(ex.cap_run, texts.fill_null(""), ok)
    assert got[0].tolist() == [0, 0, 3, 4]
    assert got[1].tolist() == [0, 18, 14, 0]
    assert got[2].to_pylist() == ["Ada Lovelace", "Bob Smith",
                                  "Ada Lovelace", "Acme Corp"]
