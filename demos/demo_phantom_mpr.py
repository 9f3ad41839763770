"""Generate one phantom volume, augment it, and render its standard planes.

Writes the volume, its plane annotations, and PGM slices (original and
augmented) into ./demo_out so the transported labels can be inspected
visually: the anatomy should look identical in the plane-aligned slices no
matter how the volume was rotated, scaled, mirrored, or shifted.
"""

import os

import numpy as np

from planereg import ExperimentConfig, PhantomSpec, augment_sample, generate_phantom
from planereg.config import Stream
from planereg.geometry import write_plane_file
from planereg.volume import Volume, extract_mpr_slice, write_pgm, write_volume
from planereg.geometry import compose_transforms, rotation_from_euler_zyx, rotation_transform, translation_transform

out_dir = "demo_out"
os.makedirs(out_dir, exist_ok=True)

pose = compose_transforms(
    [
        rotation_transform(rotation_from_euler_zyx(0.5, -0.3, 0.2)),
        translation_transform([8.0, -5.0, 3.0]),
    ]
)
spec = PhantomSpec(patient_id=0, pose=pose, metal=True, tilt_deg=25.0)
vol, planes = generate_phantom(spec, 96, 1.65, np.random.default_rng(7))
write_volume(os.path.join(out_dir, "phantom"), vol)
write_plane_file(os.path.join(out_dir, "phantom.planes"), planes)
print("phantom volume:", vol.dims, "voxels at", vol.spacing, "mm")

for name, frame in planes.items():
    img = extract_mpr_slice(vol, frame, size=256, px_spacing=0.7)
    write_pgm(os.path.join(out_dir, f"{name}.pgm"), img)
    print(f"wrote {name}.pgm; plane normal {np.round(frame.e_w, 3)}")

cfg = ExperimentConfig(out_dims=96, out_spacing=1.65, seed=42)
sample = augment_sample(vol, list(planes.values()), cfg, (Stream.AUGMENT, 0, 0))  # training's draw for epoch 0, sample 0
print("\naugmentation: mirrored =", sample.mirrored, " intensity factor =", round(sample.intensity_factor, 4))

aug_hu = sample.image * 1530.0 - 490.0  # map the windowed input roughly back to HU for display
aug_vol = Volume(values=aug_hu.astype(np.float32), spacing=(1.65,) * 3)
for name, frame in zip(planes, sample.planes):
    img = extract_mpr_slice(aug_vol, frame, size=256, px_spacing=0.7)
    write_pgm(os.path.join(out_dir, f"augmented_{name}.pgm"), img)
print("wrote augmented_<plane>.pgm; compare against the originals")
