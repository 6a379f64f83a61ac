"""Recovery of gappy, noisy multichannel time series.

Channels are transformed into stacked Page (or Hankel) matrices, denoised by
optimal hard singular value thresholding, and either imputed offline window
by window or extrapolated online one sample ahead through a linear
regression on the denoised matrix rows.
"""

from .core import (
    ChannelKind,
    ChannelSeries,
    Dataset,
    ingest_csv,
    locf_fill,
    write_csv,
)
from .errors import (
    AllMissingChannel,
    ConfigError,
    FormatError,
    MapeUndefined,
    NumericError,
    PagerecError,
    ShapeError,
)
from .harness import (
    DegradeSpec,
    Scenario,
    ScenarioResult,
    Synthetic,
    benchmark_corpus,
    degrade,
    locf_baseline,
    mape,
    persistence_baseline,
    results_to_dict,
    run_benchmark,
)
from .matrices import MatrixVariant
from .recovery import (
    ForecastModel,
    RecoveryConfig,
    RecoveryReport,
    impute_offline,
    predict_next,
    predict_stream,
)
from .svt import optimal_threshold

__version__ = "0.1.0"
