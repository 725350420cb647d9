//! # vvd-vision
//!
//! Depth-camera simulator and image preprocessing for the Veni Vidi Dixi
//! reproduction.
//!
//! The paper captures the communication environment with a Stereolabs ZED
//! RGB-D camera at 720p/30 fps and feeds *depth* images (downsampled by 10
//! and cropped to 50 × 90 pixels) to the CNN.  This crate replaces the
//! camera with a pinhole ray-caster over a geometric scene description:
//!
//! * [`scene`] — primitives (floor/wall planes, axis-aligned boxes for the
//!   static metallic objects, a vertical cylinder for the human) and their
//!   ray intersections,
//! * [`camera`] — the pinhole projection model with configurable pose,
//!   field of view and resolution,
//! * [`render`] — per-pixel nearest-hit depth rendering into a
//!   [`DepthImage`], over a [`StaticView`] that traces the static geometry
//!   once so each frame only intersects the moving cylinders,
//! * [`preprocess`](mod@preprocess) — the paper's Fig.-7 pipeline:
//!   block-average downsampling, cropping to the informative region and
//!   normalisation.
//!
//! The crate is deliberately independent of `vvd-channel`: the scene is
//! described by plain geometric structs so that the testbed can build the
//! render scene and the radio scene from one room description without a
//! dependency cycle.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod camera;
pub mod image;
pub mod preprocess;
pub mod render;
pub mod scene;

pub use camera::PinholeCamera;
pub use image::DepthImage;
pub use preprocess::{preprocess, PreprocessConfig};
pub use render::{render_depth, StaticView};
pub use scene::{Scene, Vec3};
