"""Time-aware item-based collaborative filtering with piecewise decay.

Pipeline: parse an implicit-feedback event log, preprocess and split it
leave-the-latest-out, build a sparse item-item cosine model, analyze how
rating impact decays with age (ssnr curve and piecewise trend fit), score
candidates with a decay-weighted sum, and evaluate hit-rates across decay
families and parameter grids.
"""

from .dataset import (
    Dataset,
    LogFormat,
    ProbeSet,
    RatingEvent,
    RatingLog,
    TrainSet,
    parse_events,
    preprocess,
    split_leave_latest,
    write_events,
)
from .decay import (
    Constant,
    DecayParseError,
    DecaySpec,
    Exponential,
    Logistic,
    Outraday,
    Piecewise,
    Window,
    eval_decay,
    format_decay,
    parse_decay,
)
from .evaluation import (
    EvalReport,
    ParamGrid,
    SweepResult,
    evaluate,
    grid_sweep,
    hit_rate,
    prepare_evaluation,
)
from .recommender import ScoreVector, probe_rank, score_items, score_specs, top_n
from .similarity import (
    CacheFormatError,
    CacheMismatchError,
    SimilarityModel,
    build_similarity,
    load_cache,
    save_cache,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .temporal import (
    BinnedCurve,
    CurveBin,
    DegenerateRatioError,
    SsnrSample,
    TrendFit,
    TrendFitError,
    collect_ssnr_ages,
    compute_fsnr,
    compute_ssnr,
    fit_piecewise_trend,
    log_bin_average,
)

__version__ = "0.1.0"
