"""The restorer on hand-picked words; the generated contract test in
test_cli.py checks it against the token-by-token reference restorer."""

import pytest

from conftest import saved_doc
from oracle import o_diacritize
from runemetrics import Corpus, ScriptProfile, diacritize, get_profile, train


def test_word_map_hit_fallback_and_unseen_base():
    model = train(Corpus.from_lines(["n\u0303ino ca\u0301fe"], get_profile("latin-generic")))
    text = "Nino fanc \u05d0 cafe"
    out = diacritize(model, text)
    assert out == o_diacritize(saved_doc(model), model.profile, text)
    assert out == "N\u0303ino fa\u0301nc \u05d0 ca\u0301fe"


def test_em_and_en_quads_come_out_decomposed():
    model = train(Corpus.from_lines(["ca\u0301fe"], get_profile("latin-generic")))
    assert diacritize(model, "cafe\u2000cafe\u2001x") == "ca\u0301fe\u2002ca\u0301fe\u2003x"


def test_allowlisted_whitespace_rejected():
    with pytest.raises(ValueError, match="whitespace"):
        ScriptProfile("bad", extra_mark_allowlist=frozenset("'\u00a0"))
