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

spec = SyntheticSpec(n_clips=40, duration_s=0.5)
waveforms, entries = generate_synthetic(spec, seed=11)
print(f"corpus: {len(waveforms)} clips, classes {sorted(set(e.class_label for e in entries))}")

codec_cfg = CodecConfig()
inputs = np.stack([encode_matrix(mel_spectrogram(wav), codec_cfg, "tae").spikes
                   for wav in waveforms], dtype=np.float64)
print(f"encoded: {inputs.shape[1]} channels x {inputs.shape[2]} frames per clip")

snn_cfg = SnnConfig(
    hidden_sizes=(64, 64, 64),
    lr=0.01,
    batch_size=8,
    epochs=80,
    seed=5,
)
results, histories = run_protocol(
    inputs, [e.class_label for e in entries], [e.fold for e in entries],
    [e.split for e in entries], snn_cfg)

history = histories[0]
print("\nepoch  train loss  train macro-acc")
for epoch, _, loss, acc in history[::10] + history[-1:]:
    print(f"{epoch:5d}  {loss:10.4f}  {acc:15.3f}")

_, macro_acc, recalls = results[0]
print(f"\nheld-out macro accuracy: {macro_acc:.3f}")
for name, recall in sorted(recalls.items()):
    print(f"  recall[{name}] = {recall:.3f}")
