//! # aimts-imaging
//!
//! Conversion of time-series samples into RGB line-chart images, as used by
//! AimTS's series-image contrastive learning (paper §IV-C.1):
//!
//! * each variable is plotted as a line chart in its own square sub-image,
//!   x-axis = timestamps, y-axis = values;
//! * observed points are marked with a `*`-like marker and connected by
//!   straight line segments;
//! * each variable gets a distinct color and the sub-images are stitched
//!   into one square-ish grid;
//! * the final image is standardized per channel before entering the image
//!   encoder.
//!
//! The rasterizer is a small, dependency-free scanline renderer (Bresenham
//! polylines + plus-shaped markers) producing `[3, H, W]` row-major `f32`
//! buffers ready to wrap in a tensor.
//!
//! ```
//! use aimts_imaging::{render_sample, ImageConfig};
//! let var: Vec<f32> = (0..50).map(|i| (i as f32 * 0.3).sin()).collect();
//! let img = render_sample(&[var], &ImageConfig::default());
//! assert_eq!(img.height, 64);
//! assert_eq!(img.width, 64);
//! assert_eq!(img.data.len(), 3 * 64 * 64);
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

mod raster;

pub use raster::Canvas;

/// Distinct colors assigned to variables, cycled when M > 8.
/// (Values are linear RGB in [0, 1].)
pub const PALETTE: [[f32; 3]; 8] = [
    [0.12, 0.47, 0.71], // blue
    [1.00, 0.50, 0.05], // orange
    [0.17, 0.63, 0.17], // green
    [0.84, 0.15, 0.16], // red
    [0.58, 0.40, 0.74], // purple
    [0.55, 0.34, 0.29], // brown
    [0.89, 0.47, 0.76], // pink
    [0.09, 0.75, 0.81], // cyan
];

/// Rendering configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageConfig {
    /// Side length of each per-variable sub-image (pixels).
    pub cell: usize,
    /// Maximum number of grid columns when stitching sub-images.
    pub max_cols: usize,
    /// Draw `*` markers at (subsampled) observation points.
    pub markers: bool,
    /// Standardize the final image per channel (zero mean, unit variance).
    pub standardize: bool,
    /// Fractional margin inside each sub-image.
    pub margin: f32,
}

impl Default for ImageConfig {
    fn default() -> Self {
        ImageConfig {
            cell: 64,
            max_cols: 4,
            markers: true,
            standardize: true,
            margin: 0.06,
        }
    }
}

impl ImageConfig {
    /// Smaller images for fast tests/benches.
    pub fn small() -> Self {
        ImageConfig {
            cell: 32,
            ..Default::default()
        }
    }
}

/// A rendered RGB image: channel-major `[3, height, width]` data.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbImage {
    pub height: usize,
    pub width: usize,
    pub data: Vec<f32>,
}

impl RgbImage {
    /// Pixel accessor `(channel, y, x)`.
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[c * self.height * self.width + y * self.width + x]
    }

    /// Mean per channel (diagnostics / tests).
    pub fn channel_means(&self) -> [f32; 3] {
        let hw = self.height * self.width;
        let mut out = [0f32; 3];
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.data[c * hw..(c + 1) * hw].iter().sum::<f32>() / hw as f32;
        }
        out
    }
}

/// Grid layout for `m` variables: (rows, cols).
pub fn grid_layout(m: usize, max_cols: usize) -> (usize, usize) {
    assert!(m >= 1);
    let cols = (m as f32).sqrt().ceil() as usize;
    let cols = cols.clamp(1, max_cols.max(1));
    let rows = m.div_ceil(cols);
    (rows, cols)
}

/// Render a multivariate sample (`vars[m]` = the m-th variable's series)
/// into one stitched RGB image (paper `Image(X_i)`).
///
/// Each variable is min–max scaled inside its own sub-image — the paper
/// notes each variable has a distinct scale and is plotted separately.
pub fn render_sample(vars: &[Vec<f32>], cfg: &ImageConfig) -> RgbImage {
    assert!(
        !vars.is_empty(),
        "cannot render a sample with zero variables"
    );
    let m = vars.len();
    let (rows, cols) = grid_layout(m, cfg.max_cols);
    let (h, w) = (rows * cfg.cell, cols * cfg.cell);
    let mut canvas = Canvas::new(h, w);

    for (vi, series) in vars.iter().enumerate() {
        assert!(!series.is_empty(), "variable {vi} is empty");
        let color = PALETTE[vi % PALETTE.len()];
        let gy = (vi / cols) * cfg.cell;
        let gx = (vi % cols) * cfg.cell;
        draw_variable(&mut canvas, series, color, gy, gx, cfg);
    }

    let mut img = RgbImage {
        height: h,
        width: w,
        data: canvas.into_data(),
    };
    if cfg.standardize {
        standardize(&mut img);
    }
    img
}

/// Per-channel standardization to zero mean / unit variance.
pub fn standardize(img: &mut RgbImage) {
    let hw = img.height * img.width;
    for c in 0..3 {
        let ch = &mut img.data[c * hw..(c + 1) * hw];
        let mean: f32 = ch.iter().sum::<f32>() / hw as f32;
        let var: f32 = ch.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / hw as f32;
        let std = var.sqrt().max(1e-6);
        for v in ch.iter_mut() {
            *v = (*v - mean) / std;
        }
    }
}

fn draw_variable(
    canvas: &mut Canvas,
    series: &[f32],
    color: [f32; 3],
    oy: usize,
    ox: usize,
    cfg: &ImageConfig,
) {
    let cell = cfg.cell;
    let margin = ((cell as f32) * cfg.margin) as usize;
    let plot = cell - 2 * margin;
    assert!(plot >= 2, "cell too small for margin");

    // Min–max scale this variable into the sub-image.
    let (lo, hi) = series
        .iter()
        .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let range = (hi - lo).max(1e-6);
    let n = series.len();
    let to_px = |t: usize, v: f32| -> (usize, usize) {
        let x = if n == 1 {
            0
        } else {
            (t as f32 / (n - 1) as f32 * (plot - 1) as f32) as usize
        };
        let yfrac = (v - lo) / range;
        // y axis points up: invert.
        let y = ((1.0 - yfrac) * (plot - 1) as f32) as usize;
        (oy + margin + y, ox + margin + x)
    };

    // Polyline.
    let mut prev = to_px(0, series[0]);
    for (t, &v) in series.iter().enumerate().skip(1) {
        let cur = to_px(t, v);
        canvas.line(prev.0, prev.1, cur.0, cur.1, color);
        prev = cur;
    }
    // Markers: subsample so dense series do not become solid blocks.
    if cfg.markers {
        let step = (n / 16).max(1);
        for t in (0..n).step_by(step) {
            let (y, x) = to_px(t, series[t]);
            canvas.marker(y, x, color);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.2).sin()).collect()
    }

    #[test]
    fn univariate_is_one_cell() {
        let img = render_sample(&[sine(40)], &ImageConfig::default());
        assert_eq!((img.height, img.width), (64, 64));
    }

    #[test]
    fn grid_layouts() {
        assert_eq!(grid_layout(1, 4), (1, 1));
        assert_eq!(grid_layout(2, 4), (1, 2));
        assert_eq!(grid_layout(3, 4), (2, 2));
        assert_eq!(grid_layout(4, 4), (2, 2));
        assert_eq!(grid_layout(5, 4), (2, 3));
        assert_eq!(grid_layout(9, 4), (3, 3));
        assert_eq!(grid_layout(17, 4), (5, 4)); // clamped to 4 cols
    }

    #[test]
    fn multivariate_stitches_grid() {
        let vars: Vec<Vec<f32>> = (0..3).map(|_| sine(20)).collect();
        let img = render_sample(&vars, &ImageConfig::default());
        assert_eq!((img.height, img.width), (128, 128));
    }

    #[test]
    fn unstandardized_image_has_ink() {
        let cfg = ImageConfig {
            standardize: false,
            ..Default::default()
        };
        let img = render_sample(&[sine(40)], &cfg);
        let nonzero = img.data.iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero > 50, "expected drawn pixels, got {nonzero}");
        assert!(img.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn variables_use_distinct_colors() {
        let cfg = ImageConfig {
            standardize: false,
            ..Default::default()
        };
        let img = render_sample(&[sine(20), sine(20)], &cfg);
        // Variable 0 occupies left cell: dominant blue; variable 1 orange.
        let hw = img.height * img.width;
        let mut left = [0f32; 3];
        let mut right = [0f32; 3];
        for c in 0..3 {
            for y in 0..img.height {
                for x in 0..img.width {
                    let v = img.data[c * hw + y * img.width + x];
                    if x < 64 {
                        left[c] += v;
                    } else {
                        right[c] += v;
                    }
                }
            }
        }
        assert!(left[2] > left[0], "left cell should be blue-dominant");
        assert!(
            right[0] > right[2],
            "right cell should be red/orange-dominant"
        );
    }

    #[test]
    fn standardized_channels_zero_mean() {
        let img = render_sample(&[sine(50)], &ImageConfig::default());
        for m in img.channel_means() {
            assert!(m.abs() < 1e-4, "channel mean {m}");
        }
    }

    #[test]
    fn constant_series_renders_flat_line() {
        let img = render_sample(
            &[vec![5.0; 30]],
            &ImageConfig {
                standardize: false,
                ..Default::default()
            },
        );
        // All ink on a single row band.
        let hw = img.height * img.width;
        let mut rows_with_ink = std::collections::HashSet::new();
        for y in 0..img.height {
            for x in 0..img.width {
                if img.data[2 * hw + y * img.width + x] > 0.0 {
                    rows_with_ink.insert(y);
                }
            }
        }
        assert!(
            rows_with_ink.len() <= 4,
            "flat series spread over {rows_with_ink:?}"
        );
    }

    #[test]
    fn deterministic() {
        let a = render_sample(&[sine(33)], &ImageConfig::default());
        let b = render_sample(&[sine(33)], &ImageConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero variables")]
    fn empty_sample_panics() {
        let _ = render_sample(&[], &ImageConfig::default());
    }
}
