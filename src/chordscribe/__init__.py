"""Key, chord, and bass-note estimation from music audio.

Pipeline: loudness-based bass/treble chromagrams -> maximum-likelihood
training of a factored key/chord/bass hidden-Markov model -> constrained
Viterbi decoding with search-space reduction -> interval metrics.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .audio_io import AudioBuffer, WavSource, load_wav, resample, synthesize_triads, write_wav
from .annotations import (
    Alphabet,
    ChordSymbol,
    FrameLabels,
    IntervalLabels,
    beat_sync_labels,
    chord_pitch_classes,
    derive_bass,
    make_alphabet,
    parse_chord_symbol,
    parse_key_label,
    parse_lab,
    write_lab,
)
from .chroma import (
    ChromaConfig,
    Chromagram,
    SpectralMatrix,
    a_weighting,
    bass_config,
    beat_sync_median,
    compute_chromagram,
    constant_q,
    default_beat_grid,
    estimate_tuning,
    fold_and_normalize,
    pitch_class_index,
    read_beats,
    read_chromagram,
    spl,
    treble_config,
    write_chromagram,
)
from .decode import (
    Constraints,
    DecodePath,
    NoAdmissiblePathError,
    chord_alphabet_constraint,
    forward_backward,
    prune_key_transitions,
    viterbi_joint,
)
from .evaluate import EvalReport, aggregate, bass_frame_accuracy, overlap_ratio, paired_t_test
from .model import ChordOnlyHmm, HpModel, TrainConfig, load_model, save_model, train

# Every name imported above; the submodules themselves are not listed.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
