#!/usr/bin/env python3
"""What the feature layer computes from raw per-modality inputs.

Boxes are normalized to the unit square; object-category co-occurrence
across a corpus becomes the pair relevance matrix; f0 frames become embedding
rows (average voiced pitch, clamped to 50..500 Hz); VAD frames become
per-clip voice/non-voice durations. Each speech track computes a feature for
all of its clips at once, at its first use, and keeps it.
"""

import numpy as np

from mmgi.features import RegionSet, SpeechTrack, build_pair_matrix
from mmgi.synth import SynthConfig, generate_synthetic

print("-- bounding boxes --")
boxes = [(64, 48, 320, 240), (0, 0, 640, 480)]
regions = RegionSet(features=np.zeros((2, 1)), bboxes=boxes, categories=[0, 1],
                    image_size=(640, 480))
for box, unit in zip(boxes, regions.unit_boxes("demo")):
    print(f"pixel box {box} in a 640x480 image ->", unit)

print("\n-- pair relevance --")
# three images: categories co-detected per image
images = [[0, 1], [0, 1], [0], [2, 1]]
pair = build_pair_matrix(images, 3)
print("co-detections", images)
print(np.round(pair.values, 3))

print("\n-- pitch rows --")
clips = [[219.4, 219.8], [600.0], [0.0, 0.0], [0.0, 140.0, 150.0]]
track = SpeechTrack(clips=[(0.01 * t, 0.01 * (t + 1)) for t in range(len(clips))],
                    clip_features=np.zeros((len(clips), 1)), f0_frames=clips,
                    vad_frames=[[f > 0 for f in frames] for frames in clips])
for frames, row in zip(clips, track.pitch_rows("demo")):
    print(f"f0 frames {frames} -> embedding row {row}")

print("\n-- voice activity on a synthetic example --")
example = generate_synthetic(SynthConfig(sentence_count=1, seed=3))[0]
voice, nonvoice = example.speech.voice_times(example.id)
print("tokens:  ", example.tokens)
print("voiced s:", np.round(voice, 2))
print("pauses s:", np.round(nonvoice, 2))
print("(the pause marks the end of a shallow constituent)")
print("gold brackets:", example.gold_brackets)
