"""kwslite: small-footprint keyword spotting on plain numpy.

A log-mel frontend, five compact CNN/DNN architectures with exact
parameter/multiply accounting, deterministic from-scratch training with a
finite-difference gradient oracle, posterior smoothing and event detection,
and a bit-exact model container. See the demos/ scripts for guided tours.
"""

from .arch import (
    ARCHITECTURES,
    ArchSpec,
    Conv,
    Dense,
    Flatten,
    LowRank,
    SoftmaxOut,
    build_cnn_one,
    build_cnn_tpool,
    build_cnn_trad,
    build_cnn_tstride,
    build_dnn_baseline,
    forward,
    forward_frames,
    get_arch,
    init_weights,
    validate,
    weight_manifest,
)
from .audio import SAMPLE_RATE, Waveform, read_wav, write_wav
from .budget import (
    BudgetReport,
    LayerCost,
    compare,
    count_layer,
    fit_to_budget,
    format_report,
    instrumented_forward,
    report,
)
from .data import (
    FILLER_NAME,
    SyntheticSpec,
    WaveformDataset,
    center_window_examples,
    load_dataset_dir,
    make_synthetic_dataset,
)
from .errors import (
    AgreementError,
    AudioFormatError,
    BadMagicError,
    DivergenceError,
    InfeasibleBudgetError,
    InsufficientAudioError,
    KwsError,
    ManifestMismatchError,
    ModelFormatError,
    NumericError,
    ShapeError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .frontend import (
    Context,
    FrameConfig,
    build_mel_filterbank,
    frame_signal,
    log_mel,
    log_mel_frames,
    mel_filter_centers,
    read_feature_dump,
    stack_context,
    write_feature_dump,
)
from .modelio import LoadedModel, load_model, save_model
from .posterior import (
    DetectionEvent,
    DetectorConfig,
    StreamingDetector,
    confidence,
    detect,
    posteriors_from_waveform,
    smooth,
)
from .tensor import (
    FilterBank,
    MacCounter,
    Pool,
    Stride,
    conv2d_optimized,
    conv2d_valid,
    dense,
    flatten,
    linear,
    maxpool,
    softmax,
)
from .train import (
    EpochStats,
    LabeledExample,
    TrainConfig,
    TrainResult,
    cross_entropy,
    evaluate,
    grad_check,
    loss_and_grads,
    train,
)

__version__ = "0.1.0"
