"""Fuzz the extract kernel's fast paths against their reference paths:
the megastring scan (one finditer per pattern, searchsorted mapping)
must emit byte-identical records to per-span scanning, and the Arrow
prefilter must never skip a span the full scan would match — including
texts with embedded newlines, unicode, and boundary punctuation."""

import numpy as np
import pyarrow as pa

from kgeng.ops.extract import Extract
from kgeng.synth.corpus import SPAN_TYPE


def _random_docs(rng, n_docs: int) -> pa.Table:
    words = ["alpha", "beta", "Gamma", "Delta", "Acme", "Corp", "x",
             "Bob", "Smith", "mail@test.io", "ABC-42", "2024-01-02",
             "über", "naïve", ",", ".", "--", "(ok)",
             # ADVICE r02: Python \w is Unicode-aware, RE2's is ASCII —
             # these must survive the Arrow prefilter
             "josé@example.com", "müller@host.de", "１２３４-01-02"]
    caps = ["Ada Lovelace", "Acme Corp", "New York City", "Bob Smith"]
    preds = [" works at ", " is located in ", " lives in "]
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
            toks = list(rng.choice(words, size=int(rng.integers(2, 12))))
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


def test_megastring_equals_per_span_scan():
    gaz = {"Ada Lovelace": ("E1", "PERSON"), "Acme Corp": ("E2", "ORG"),
           "New York City": ("E3", "LOC")}
    rng = np.random.default_rng(77)
    batch = _random_docs(rng, 300)

    fast = Extract(gaz)
    assert fast.mega_ok and fast.prefilter is not None
    slow = Extract(gaz)
    slow.mega_ok = False      # force per-span reference scanning
    slow.prefilter = None     # and no Arrow prefilter

    assert _rows(fast(batch)) == _rows(slow(batch))


def test_prefilter_only_differs_in_skipping_nothing():
    gaz = {"Bob Smith": ("E9", "PERSON")}
    rng = np.random.default_rng(123)
    batch = _random_docs(rng, 200)
    with_pf = Extract(gaz)
    no_pf = Extract(gaz)
    no_pf.prefilter = None
    assert _rows(with_pf(batch)) == _rows(no_pf(batch))


def _one_text_batch(text: str) -> pa.Table:
    spans = [{"kind": "text", "text": text, "media_ref": "", "offset": 0}]
    return pa.table({"doc_id": pa.array(["u-0"]),
                     "spans": pa.array([spans], pa.list_(SPAN_TYPE))})


def test_prefilter_keeps_unicode_email_span():
    """ADVICE r02 (high): 'josé@example.com' matches the EMAIL detector
    under Python re but not under RE2's ASCII \\w; the prefilter must be
    a superset, not an ASCII approximation."""
    ex = Extract({})
    assert ex.prefilter is not None
    out = ex(_one_text_batch("Contact: josé@example.com today"))
    surfaces = out["surface"].to_pylist()
    assert "josé@example.com" in surfaces


def test_exotic_detectors_fall_back_soundly():
    """ADVICE r02 (medium): anchored / complement-shorthand detectors
    must not run on the '\\n'-joined megastring (matches would be lost
    or invented); they fall back to per-span scanning with identical
    results."""
    from kgeng.config import DetectConfig

    cfg = DetectConfig(regex_detectors=(
        ("LINENO", r"^\d+"),          # anchored: finds nothing mid-mega
        ("NONDIGIT", r"X\D\d"),       # \D matches '\n': crosses spans
    ))
    ex = Extract({}, cfg)
    assert not ex.mega_ok
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


def test_phrase_scan_matches_named_group_reference():
    """The phrase alternation carries no named groups; the matched text
    maps back to its predicate. Every span's (offset, predicate) list
    equals the one the named-group alternation gives, through the
    megastring scan and the per-span fallback."""
    import re

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

    for mega_ok in (True, False):
        ex = Extract({})
        ex.mega_ok = mega_ok
        mega, starts = ex._join(texts)
        span_i, off, surf = ex._scan(texts, mega, starts, ex.phrase_re)
        got: list[list] = [[] for _ in texts]
        for i, o, s in zip(span_i.tolist(), off.tolist(), surf):
            got[i].append((o, ex.phrase_pred[s]))
        assert got == [want(t) for t in texts]
    assert sum(map(len, (want(t) for t in texts))) > 300
