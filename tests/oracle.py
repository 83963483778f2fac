"""Independent brute-force oracles used to cross-check the library.

Everything here recounts from the raw token list (or re-integrates the
t density numerically) on every query, sharing no computation with the
implementation under test.  It imports five names from the package: the
value types it returns or builds (``Rune``, ``CorpusProfile``,
``EvalReport``), the error it raises (``CorpusError``), and the sampler's
generator ``Xorshift64Star``, which ``o_sample`` shuffles with.  The
shared generator is pinned by literal draws, bounded draws and a
shuffle in ``test_corpus_io.py::test_prng_is_stable``.
"""

import math
import re
import unicodedata
from collections import Counter

from runemetrics import CorpusError, CorpusProfile, EvalReport, Rune, Xorshift64Star


def o_rs(rune, tokens):
    same_rune = sum(1 for t in tokens if t == rune)
    same_base = sum(1 for t in tokens if t.base == rune.base)
    return -math.log(same_rune / same_base)


def o_dts(rune, tokens):
    same_base = sum(1 for t in tokens if t.base == rune.base)
    total = 0.0
    for d in rune.marks:
        with_mark = sum(1 for t in tokens if t.base == rune.base and d in t.marks)
        total += -math.log(with_mark / same_base)
    return total


def o_dss(rune, tokens):
    types = {t for t in tokens if t.base == rune.base}
    total = 0.0
    for d in rune.marks:
        with_mark = {t for t in types if d in t.marks}
        total += -math.log(len(with_mark) / len(types))
    return total


def o_density(tokens):
    marks = sum(len(t.marks) for t in tokens)
    return marks / len(tokens)


def o_report(tokens):
    """(density, mean_rs, mean_dts, mean_dss) over all tokens."""
    n = len(tokens)
    return (
        o_density(tokens),
        math.fsum(o_rs(t, tokens) for t in tokens) / n,
        math.fsum(o_dts(t, tokens) for t in tokens) / n,
        math.fsum(o_dss(t, tokens) for t in tokens) / n,
    )


def t_density(u, dof):
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(dof * math.pi)
    return c * (1 + u * u / dof) ** (-(dof + 1) / 2)


def o_t_two_tailed(t, dof, steps=200_000):
    """Two-tailed p by trapezoid integration of the central region."""
    t = abs(t)
    if t == 0:
        return 1.0
    h = t / steps
    area = 0.5 * (t_density(0.0, dof) + t_density(t, dof))
    area += math.fsum(t_density(i * h, dof) for i in range(1, steps))
    central = 2.0 * area * h
    return max(0.0, 1.0 - central)


def o_is_mark(ch, profile):
    """The profile's mark test, from the Unicode category afresh."""
    if ch in profile.mark_denylist:
        return False
    if ch in profile.extra_mark_allowlist:
        return True
    return unicodedata.category(ch) in ("Mn", "Mc")


def o_strip(text, profile):
    """The reference stripper: drops each mark character of the NFD text,
    one character at a time, and decomposes the result again."""
    kept = [ch for ch in unicodedata.normalize("NFD", text) if not o_is_mark(ch, profile)]
    return unicodedata.normalize("NFD", "".join(kept))


def o_canonical(marks):
    """A rune's marks as the reference segmenter holds them: each once, in
    ascending (combining class, codepoint) order."""
    return tuple(sorted(set(marks), key=lambda m: (unicodedata.combining(m), ord(m))))


def o_segment(text, profile):
    """(runes, orphan count): the reference segmenter, one character at a
    time, classifying each codepoint afresh from its Unicode category."""
    runes = []
    orphans = 0
    base = None
    marks = []
    for ch in unicodedata.normalize("NFD", text):
        if o_is_mark(ch, profile):
            if base is None:
                orphans += 1
            else:
                marks.append(ch)
            continue
        if base is not None:
            runes.append(Rune(base, o_canonical(marks)))
        base = None
        marks = []
        if unicodedata.category(ch).startswith("L"):
            low = ch.lower()
            base = low if profile.casefold and len(low) == 1 else ch
    if base is not None:
        runes.append(Rune(base, o_canonical(marks)))
    return runes, orphans


def o_runes(corpus):
    """Every rune token of the corpus, text by text, from the reference
    segmenter."""
    return [r for _, text in corpus.texts for r in o_segment(text, corpus.profile)[0]]


def o_words(text, profile):
    """The runes of each word of a line: each whitespace token that holds
    a rune, segmented by the reference segmenter."""
    return [tuple(w) for w in (o_segment(tok, profile)[0] for tok in text.split()) if w]


def o_profile(corpus):
    """The reference profile: counts marks, multi-marked tokens and marked
    types rune by rune, word by word, line by line."""
    total_runes = 0
    total_marks = 0
    multi_tokens = 0
    marked_types = set()
    n_words = 0
    n_words_marked = 0
    n_lines = 0
    n_lines_marked = 0
    orphans = 0

    for _, text in corpus.texts:
        runes, line_orphans = o_segment(text, corpus.profile)
        n_lines += 1
        orphans += line_orphans
        total_runes += len(runes)
        line_marks = 0
        for word in o_words(text, corpus.profile):
            n_words += 1
            wmarks = 0
            for r in word:
                if r.marks:
                    k = len(r.marks)
                    wmarks += k
                    if k >= 2:
                        multi_tokens += 1
                    marked_types.add(r)
            if wmarks:
                n_words_marked += 1
                line_marks += wmarks
        if line_marks:
            n_lines_marked += 1
            total_marks += line_marks

    if n_words == 0:
        raise ValueError("corpus contains no words")

    return CorpusProfile(
        density_pct=100.0 * (total_marks / total_runes),  # as metrics' 100.0 * density
        multi_diacritic_pct=100.0 * multi_tokens / total_runes,
        pct_words_diacritized=100.0 * n_words_marked / n_words,
        pct_lines_diacritized=100.0 * n_lines_marked / n_lines,
        mean_diacs_per_diacritized_word=(
            total_marks / n_words_marked if n_words_marked else 0.0
        ),
        distinct_marked_runes=len(marked_types),
        system_class="Multi" if multi_tokens else "Single",
        warnings=orphans,
    )


def o_tables(tokens):
    """The six derived frequency tables, recounted from the token list:
    the two type counts are the sizes of the type sets T(c) and T_d(c)."""
    base_count, mark_char_count = {}, {}
    rune_types, mark_types = {}, {}
    for t in tokens:
        base_count[t.base] = base_count.get(t.base, 0) + 1
        rune_types.setdefault(t.base, set()).add(t)
        for d in t.marks:
            mark_char_count[(d, t.base)] = mark_char_count.get((d, t.base), 0) + 1
            mark_types.setdefault((d, t.base), set()).add(t)
    return {
        "base_count": base_count,
        "mark_char_count": mark_char_count,
        "type_count": {c: len(types) for c, types in rune_types.items()},
        "mark_type_count": {k: len(types) for k, types in mark_types.items()},
        "total_bases": len(tokens),
        "total_marks": sum(len(t.marks) for t in tokens),
    }


def o_diacritize(doc, profile, text):
    """The reference restorer over a saved model document: splits each line
    on whitespace and, token by token, segments the token, looks up its key
    in the document's maps, segments the stored form, and walks the token's
    characters again to apply the predicted marks.  Whitespace passes
    through, decomposed as all output is."""
    word_map, char_map = doc["word_map"], doc["char_map"]

    def is_letter(ch):
        return not o_is_mark(ch, profile) and unicodedata.category(ch).startswith("L")

    def restore_token(token):
        text = unicodedata.normalize("NFD", token)
        runes = o_segment(text, profile)[0]
        if not runes:
            return text
        stored = word_map.get("".join(r.base for r in runes))
        stored_runes = o_segment(stored, profile)[0] if stored is not None else ()
        if len(stored_runes) == len(runes):
            predicted = ["".join(r.marks) for r in stored_runes]
        else:
            modal = [char_map.get(r.base) for r in runes]
            predicted = [None if m is None else "".join(o_segment(m, profile)[0][0].marks) for m in modal]

        out = []
        letters = iter(predicted)
        keep_marks = True
        for ch in text:
            if o_is_mark(ch, profile):
                if keep_marks:
                    out.append(ch)
            elif is_letter(ch):
                marks = next(letters)
                out.append(ch if marks is None else ch + marks)
                keep_marks = marks is None
            else:
                out.append(ch)
                keep_marks = True
        return "".join(out)

    out_lines = []
    for line in text.split("\n"):
        pieces = re.split(r"(\s+)", line)
        out_lines.append("".join(
            unicodedata.normalize("NFD", p) if p.isspace() or not p else restore_token(p)
            for p in pieces
        ))
    return "\n".join(out_lines)


def o_train(corpus):
    """(word_map, char_map) of the reference trainer: counts every word of
    every segmented sentence, then every rune, and keeps each key's modal
    form."""
    word_forms = Counter()
    rune_counts = Counter()
    for _, text in corpus.texts:
        word_forms.update(o_words(text, corpus.profile))
        rune_counts.update(o_segment(text, corpus.profile)[0])
    if not word_forms:
        raise ValueError("cannot train on a corpus with no words")
    word_counts = {}
    for word, n in word_forms.items():
        key = "".join(r.base for r in word)
        word_counts.setdefault(key, Counter())["".join(r.base + "".join(r.marks) for r in word)] += n
    char_counts = {}
    for r, n in rune_counts.items():
        char_counts.setdefault(r.base, Counter())[r.base + "".join(r.marks)] += n

    def modal(counter):
        return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    return ({k: modal(c) for k, c in word_counts.items()},
            {c: modal(cnt) for c, cnt in char_counts.items()})


def o_evaluate(gold, hyp):
    """The reference scorer: walks each segmented sentence pair rune by
    rune, then word by word."""
    if len(gold.texts) != len(hyp.texts):
        raise ValueError(
            f"line count mismatch: gold has {len(gold.texts)}, hypothesis {len(hyp.texts)}"
        )

    def where(g, h):
        if g == h:
            return f"line {g + 1}"
        return f"gold line {g + 1}, hypothesis line {h + 1}"

    n_runes = rune_hits = 0
    n_words = word_hits = 0
    for (gi, g_text), (hi, h_text) in zip(gold.texts, hyp.texts):
        g_runes = o_segment(g_text, gold.profile)[0]
        h_runes = o_segment(h_text, hyp.profile)[0]
        if len(g_runes) != len(h_runes):
            raise ValueError(f"{where(gi, hi)}: rune count differs ({len(g_runes)} vs {len(h_runes)})")
        for pos, (gr, hr) in enumerate(zip(g_runes, h_runes)):
            if gr.base != hr.base:
                raise ValueError(
                    f"{where(gi, hi)}, rune {pos + 1}: base letter differs "
                    f"({gr.base!r} vs {hr.base!r}); hypothesis altered base text"
                )
            n_runes += 1
            if gr == hr:
                rune_hits += 1
        g_words = o_words(g_text, gold.profile)
        h_words = o_words(h_text, hyp.profile)
        if len(g_words) != len(h_words):
            raise ValueError(f"{where(gi, hi)}: word tokenization differs")
        for gw, hw in zip(g_words, h_words):
            n_words += 1
            if gw == hw:
                word_hits += 1
    if n_words == 0:
        raise ValueError("no words to score")
    return EvalReport(
        word_accuracy=100.0 * word_hits / n_words,
        rune_accuracy=100.0 * rune_hits / n_runes,
        n_words=n_words,
        n_runes=n_runes,
    )


def o_text(data):
    """A file's bytes as text: UTF-8, less one leading byte-order mark."""
    return data.decode("utf-8").removeprefix("\ufeff")


def o_lines(data, name):
    """The ``(line_index, text)`` of each non-blank sentence of a corpus
    file's bytes: of its CoNLL-U blocks when name ends in ``.conllu``, else
    of its lines, which end at universal newlines alone."""
    if name.endswith(".conllu"):
        return o_conllu_texts(o_text(data))
    return [(i, line) for i, line in enumerate(re.split(r"\r\n|\r|\n", o_text(data))) if line.strip()]


def o_conllu_texts(document):
    """The ``(line_index, text)`` of each non-blank sentence of a CoNLL-U
    document, from the README's rules.  Lines end at universal newlines,
    and blank lines separate blocks; a block's first line is its index.
    A ``# text = ...`` comment (spaces around ``=`` optional) is the
    block's text.  Otherwise the text is rebuilt in two steps: first the
    parts, one FORM per surface token (a multiword range ``N-M`` stands
    for the tokens it covers, and an empty node ``N.M`` is no token), then
    the joins, a space after every part but the last unless its MISC
    column holds ``SpaceAfter=No``.  A block whose text is blank is
    skipped, as a blank line is."""
    blocks = []
    block = []
    for index, line in enumerate(re.split(r"\r\n|\r|\n", document)):
        if line.strip():
            block.append((index, line))
        elif block:
            blocks.append(block)
            block = []
    if block:
        blocks.append(block)

    out = []
    for block in blocks:
        comment = None
        rows = []
        for _, line in block:
            if line.startswith("#"):
                m = re.fullmatch(r"#\s*text\s*=(.*)", line, re.DOTALL)
                if m:
                    comment = m.group(1).strip()
            else:
                rows.append(line.split("\t"))
        if comment is None:
            parts = []
            covered = set()
            for cols in rows:
                tid, form, misc = cols[0], cols[1], cols[9]
                if "." in tid:
                    continue
                if "-" in tid:
                    lo, hi = (int(x) for x in tid.split("-"))
                    covered.update(range(lo, hi + 1))
                    parts.append((form, misc))
                elif int(tid) not in covered:
                    parts.append((form, misc))
            joined = []
            for k, (form, misc) in enumerate(parts):
                joined.append(form)
                if k < len(parts) - 1 and "SpaceAfter=No" not in misc.split("|"):
                    joined.append(" ")
            comment = "".join(joined)
        if comment.strip():
            out.append((block[0][0], comment))
    return out


def o_sample(corpus, cfg):
    """The ``(line_index, text)`` pairs the reference sampler picks: it
    segments every text up front, shuffles the texts with their sizes and
    adds the sizes up."""
    if not corpus.texts:
        raise CorpusError("cannot sample an empty corpus")
    sized = [(pair, len(o_segment(pair[1], corpus.profile)[0])) for pair in corpus.texts]
    if not any(size for _, size in sized):
        raise CorpusError("unsampleable corpus: zero runes")
    rng = Xorshift64Star(cfg.seed)
    picked = []
    total = 0
    while total < cfg.target_base_chars:
        order = list(sized)
        rng.shuffle(order)
        for pair, size in order:
            picked.append(pair)
            total += size
            if total >= cfg.target_base_chars:
                break
    return picked
