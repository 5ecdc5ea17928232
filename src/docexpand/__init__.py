"""Document-expansion toolkit for lexical product search.

Builds novel-token training targets from engagement logs, scores pluggable
token predictors with unigram overlap metrics (including the novel-only
variant), tunes confidence cutoffs, and measures retrieval impact with a
field-weighted BM25 index carrying an expansion match field.
"""

from .corpus import (
    CatalogSplit,
    EngagementPair,
    Product,
    analyze,
    load_engagement,
    load_products,
    normalize,
    product_token_set,
    split_by_product,
)
from .cutoff import (
    BudgetMatchResult,
    CutoffSweepResult,
    ScoredRecord,
    budget_match_cutoff,
    tune_cutoff,
)
from .errors import ConfigError, InputError, ToolkitError
from .filters import (
    JaccardScorer,
    NovelPair,
    PipelineResult,
    PipelineStats,
    full_match_filter,
    overlapping_token_filter,
    price_token_filter,
    relevance_filter,
    run_pipeline,
)
from .metrics import (
    EvalRecord,
    MetricsReport,
    bootstrap_ci,
    evaluate_records,
    f1,
    make_eval_record,
    novelty_stats,
)
from .predictor import (
    CooccurrenceModel,
    ScoredToken,
    apply_cutoff,
    load_external_predictions,
    predict_cooccurrence,
    train_cooccurrence,
)
from .retrieval import (
    InvertedIndex,
    SearchResult,
    build_index,
    eval_recall,
    ndcg_at_10,
    search,
)
from .stemmer import stem
from .targets import (
    TargetToken,
    TrainingInstance,
    build_target_tokens,
    emit_training_instances,
    loss_weight,
)

__version__ = "0.1.0"
