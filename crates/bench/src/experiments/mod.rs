//! One module per paper artifact.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig02`] | Fig. 2 — GPU latency breakdown |
//! | [`fig09`] | Fig. 9 — PSNR vs points / MFLOPs |
//! | [`fig10`] | Fig. 10 — FPS vs GPUs on 3 datasets |
//! | [`fig11`] | Fig. 11 — FPS scalability (views, points) |
//! | [`fig12`] | Fig. 12 — dataflow ablation |
//! | [`tab01`] | Tab. 1 — area/power per module |
//! | [`motivation`] | Sec. 2.4 — occupancy grids don't generalize |
//! | [`tab02`] | Tab. 2 — component ablation |
//! | [`tab03`] | Tab. 3 — per-scene finetuning |
//! | [`tab04`] | Tab. 4 — device comparison |

pub mod fig02;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod motivation;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;

/// Resolution scale for the hardware-simulator experiments (the
/// cycle-level simulator at the paper's full 800×800 takes minutes;
/// FPS extrapolates by pixel count, which the binaries report).
pub fn hw_scale() -> f32 {
    std::env::var("GEN_NERF_HW_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Scales a resolution, keeping it a multiple of 8 and at least 32.
pub(crate) fn scaled_dim(base: u32, scale: f32) -> u32 {
    (((base as f32 * scale) as u32) / 8 * 8).max(32)
}
