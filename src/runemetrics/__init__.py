"""Corpus-level diacritic usage and complexity analytics.

The toolkit segments text into runes (base letter + attached marks),
computes density and surprisal metrics over corpora, profiles writing
systems as single- or multi-diacritic, trains a frequency baseline
restorer, and scores restorations with Pearson-correlation support for
cross-language analysis.
"""

__version__ = "0.1.0"

from .script_core import (  # noqa: F401
    Rune,
    ScriptProfile,
    BUILTIN_PROFILES,
    get_profile,
    load_profile,
    normalize_decompose,
    segment_runes,
    strip_runes,
    strip_text,
    render,
)
from .corpus_io import (  # noqa: F401
    Corpus,
    CorpusError,
    SamplingConfig,
    Sentence,
    Xorshift64Star,
    read_conllu,
    read_plaintext,
    read_texts,
    sample,
    write_plaintext,
)
from .metrics import (  # noqa: F401
    FrequencyTables,
    MetricReport,
    build_tables,
    merge_tables,
    rune_surprisal,
    diacritic_token_surprisal,
    diacritic_structural_surprisal,
    density,
    metric_report,
)
from .profiler import CorpusProfile, profile  # noqa: F401
from .baseline import BaselineModel, train, diacritize  # noqa: F401
from .eval_stats import (  # noqa: F401
    CorrelationReport,
    EvalReport,
    correlate_table,
    evaluate,
    pearson,
    read_table,
    regularized_incomplete_beta,
    student_t_two_tailed,
)
