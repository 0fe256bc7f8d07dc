#!/usr/bin/env python3
"""Train the four-layer LIF classifier on spike-encoded synthetic sound.

Encodes a short synthetic corpus with the adaptive-threshold codec, feeds
the signed spikes straight into the spiking network, and trains with
surrogate-gradient BPTT.  Training is full-precision numpy, so expect
under a minute on a laptop CPU; the tiny 10-clip test split means the
held-out number moves in steps of 0.1.

    python demos/03_train_lif_classifier.py
"""

import numpy as np

from spikesound import (
    CodecConfig,
    SnnConfig,
    SyntheticSpec,
    encode_matrix,
    generate_synthetic,
    mel_spectrogram,
    run_protocol,
)
from spikesound.snn import ProtocolSample

spec = SyntheticSpec(n_clips=40, duration_s=0.5)
waveforms, entries = generate_synthetic(spec, seed=11)
print(f"corpus: {len(waveforms)} clips, classes {sorted(set(e.class_label for e in entries))}")

codec_cfg = CodecConfig()
samples = []
for wav, entry in zip(waveforms, entries):
    features = mel_spectrogram(wav)
    train = encode_matrix(features, codec_cfg, "tae")
    samples.append(ProtocolSample(
        inputs=train.spikes.astype(np.float64),
        label=entry.class_label,
        fold=entry.fold,
        split=entry.split,
    ))
print(f"encoded: {samples[0].inputs.shape[0]} channels x "
      f"{samples[0].inputs.shape[1]} frames per clip")

snn_cfg = SnnConfig(
    hidden_sizes=(64, 64, 64),
    lr=0.01,
    batch_size=8,
    epochs=80,
    seed=5,
)
result = run_protocol(samples, snn_cfg)

history = result.histories[0]
print("\nepoch  train loss  train macro-acc")
for epoch, _, loss, acc in history[::10] + history[-1:]:
    print(f"{epoch:5d}  {loss:10.4f}  {acc:15.3f}")

fold = result.per_fold[0]
print(f"\nheld-out macro accuracy: {fold.macro_acc:.3f}")
for name, recall in sorted(fold.per_class_recall.items()):
    print(f"  recall[{name}] = {recall:.3f}")
