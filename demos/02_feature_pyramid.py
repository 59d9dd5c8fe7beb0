"""Build a feature pyramid from one image and render each level as an RGB
visualization.

The pyramid starts at the patch-encoder output (1/14th of the image
resolution) and doubles twice via guided upsampling; the guidance image
keeps object boundaries sharp instead of the uniform blur plain bilinear
interpolation would give.  Each level is projected onto its top three
principal components and written out as a PPM.

Run:  python3 demos/02_feature_pyramid.py
"""

import numpy as np

from hiwin import (
    EncoderSpec,
    Image,
    VdimParams,
    build_image_pyramid,
    build_isp,
    encode,
    pca_rgb,
    save_ppm,
    synth_corpus,
)
from hiwin.autodiff import guided_weights

image = synth_corpus(seed=21, count=3, size=336)[2]  # a rectangle collage
spec = EncoderSpec(channels=32, seed=21)
vdim = VdimParams.init(d_proj=16, seed=21)

pyramid = build_image_pyramid(image)
print("guidance pyramid:", [(lvl.width, lvl.height) for lvl in pyramid.levels])

f0 = encode(image, spec)
isp = build_isp(f0, pyramid, vdim)
for fmap in isp.levels:
    print(f"feature level {fmap.level}: {fmap.width}x{fmap.height}x{fmap.channels}")

save_ppm(image, "/tmp/pyramid_input.ppm")
for fmap in isp.levels:
    rendered = Image(pca_rgb(fmap.data))
    save_ppm(rendered, f"/tmp/pyramid_level{fmap.level}.ppm")
print("wrote /tmp/pyramid_input.ppm and /tmp/pyramid_level{0,1,2}.ppm")

# the upsampling kernel adapts to the guidance image: weights spread wide in
# flat regions and concentrate near edges
lk = vdim.levels[0]
weights = guided_weights(pyramid.levels[1].decoded(), lk.proj_w, lk.proj_b, lk.log_sigma_dist, lk.log_sigma_sim)
entropy = -(weights * np.log(weights + 1e-12)).sum(axis=-1)
print(f"kernel entropy over the image: min {entropy.min():.2f}, "
      f"max {entropy.max():.2f} (uniform would be {np.log(49):.2f})")
