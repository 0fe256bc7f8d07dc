"""spikesound: spike-train codecs and benchmarks for environmental sound.

Pipeline: WAV -> mel-spectrogram features -> ternary spike trains (step
forward, moving window, or threshold adaptive) -> reconstruction scoring
per frequency band and per class, firing-rate/cost measurement, and a
four-layer LIF spiking classifier trained with surrogate gradients.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, NumericError
from .ingest import (
    Waveform,
    ManifestEntry,
    DatasetRules,
    load_audio,
    resample,
    center_crop,
    filter_exact_duration,
    build_manifest,
    read_manifest,
    write_manifest,
)
from .frontend import (
    BAND_EDGES_HZ,
    FrontendConfig,
    FeatureMatrix,
    stft_power,
    mel_filterbank,
    mel_center_frequencies,
    mel_spectrogram,
    partition_bands,
    save_features,
    load_features,
)
from .codec import (
    CODEC_IDS,
    CodecConfig,
    SpikeTrain,
    encode_matrix,
    decode_matrix,
    save_spikes,
    load_spikes,
)
from .metrics import (
    snr_db,
    errdb,
    score_per_band,
    score_per_class,
    firing_rate,
)
from .snn import (
    SnnConfig,
    SpikingNet,
    ClipDataset,
    init_net,
    forward,
    train,
    evaluate_macro,
    run_protocol,
)
from .harness import (
    SyntheticSpec,
    RunConfig,
    generate_synthetic,
    write_synthetic_corpus,
    run_bench,
    compare_report,
    load_run_config,
)
