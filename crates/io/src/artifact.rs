//! The versioned model artifact: topology + parameters + protection state.
//!
//! # Layout (format version 2, all values little-endian)
//!
//! ```text
//! header     32 bytes, fixed:
//!   magic      8 × u8   = "FITACTRS"
//!   version    u32      = 2
//!   align      u32      = 64          (blob alignment, power of two)
//!   total_len  u64                    (exact file size in bytes)
//!   head_len   u64                    (head size in bytes, starts at 32)
//! head       head_len bytes:
//!   name       string                 (network name, e.g. "mlp")
//!   meta       u32 count, count × (string key, string value)
//!                                     (keys must be unique; duplicates are
//!                                      rejected as Corrupt)
//!   topology   u32 count, count × LayerSpec   (tagged, recursive)
//!   params     u32 count, count × { string path; u8 trainable; u64[] dims;
//!                                   u64 blob_offset; u64 blob_len }
//!                                     (blob_offset = absolute byte offset,
//!                                      a multiple of align; blob_len =
//!                                      element count, so the blob spans
//!                                      4 × blob_len bytes)
//!   profile    u8 present, [ u32 slots × { string label; u64[] feature_shape;
//!                                          f32 layer_max; f32[] per_neuron_max } ]
//!   scheme     u8 present, [ u8 tag; f32 slope ]
//! padding    zero bytes up to the first blob offset
//! blobs      raw little-endian f32 values, each blob align-padded
//! ```
//!
//! Parameter values live in alignment-padded blobs *after* the head instead
//! of inline, so a v2 file can be mapped read-only and every blob viewed as
//! an aligned `&[f32]` without copying — see [`crate::MappedArtifact`]. The
//! file ends exactly at `total_len`; shorter input is
//! [`IoError::Truncated`], longer input is [`IoError::Corrupt`].
//!
//! # Format version 3 — native reduced-precision blobs
//!
//! Version 3 is the v2 layout with one change: each param record carries a
//! `dtype` tag (`u8`, between `trainable` and `dims`) selecting the blob
//! encoding, plus a `u32` channel count for int8 records:
//!
//! ```text
//!   dtype 0  f32   blob = numel × 4 bytes, little-endian IEEE-754
//!   dtype 1  f16   blob = numel × 2 bytes, raw binary16 words
//!   dtype 2  int8  blob = numel × 1 byte (quantised values, two's
//!                  complement), then channels × 4 bytes (f32 scales), then
//!                  channels × 1 byte (i8 zero-points)
//! ```
//!
//! `blob_len` stays the *element count* in every encoding; the byte span is
//! derived from the dtype. A writer only stamps version 3 when some
//! parameter actually uses a native encoding — an all-f32 artifact encodes
//! byte-identically to format version 2, so v2 readers and goldens are
//! unaffected. f16 blobs keep the 64-byte alignment and can be viewed
//! zero-copy as `&[u16]` from a mapping; int8 blobs are decoded owned.
//!
//! Format version 1 (the previous revision, parameters inline as `f32[]`
//! directly in the param records, no fixed header) is still decoded by
//! [`ModelArtifact::from_bytes`]; nothing writes it any more, and the
//! compatibility tests read committed v1 files (`tests/fixtures/`).
//!
//! `string` = `u32` length + UTF-8 bytes; `T[]` = `u64` length + elements;
//! `f32` values are raw IEEE-754 bit patterns (see [`crate::bytes`]).
//!
//! # Versioning policy
//!
//! The format version is bumped whenever the layout changes incompatibly;
//! loaders reject any version they were not built for with
//! [`IoError::UnsupportedVersion`] rather than guessing. Tag spaces (layer
//! specs, activation kinds, protection schemes) are append-only, so adding a
//! new layer type does *not* bump the version — old readers fail on the
//! unknown tag with a typed [`IoError::Corrupt`].
//!
//! # Fidelity contract
//!
//! [`ModelArtifact::capture`] followed by [`ModelArtifact::instantiate`]
//! yields a network whose eval-mode [`Network::forward`] outputs — and
//! therefore accuracy numbers and fault-campaign reports — are
//! **bit-identical** to the original's, for protected and unprotected
//! models alike. This is pinned by the round-trip test suites.

use crate::bytes::{ByteReader, ByteWriter};
use crate::IoError;
use fitact::calibration::{ActivationProfile, SlotProfile};
use fitact::{ProtectedActivations, ProtectionScheme};
use fitact_nn::spec::{ActivationSpec, LayerSpec};
use fitact_nn::Network;
use fitact_tensor::Tensor;
use std::path::Path;

/// The artifact file magic.
pub const MAGIC: [u8; 8] = *b"FITACTRS";

/// The artifact format version this build writes for all-f32 models (it
/// reads versions 1, 2 and 3).
pub const FORMAT_VERSION: u32 = 2;

/// The artifact format version stamped when any parameter is stored in a
/// native reduced-precision encoding (f16 / int8 blobs).
pub const FORMAT_VERSION_NATIVE: u32 = 3;

// Param-record dtype tags (format version 3; append-only).
const DTYPE_F32: u8 = 0;
const DTYPE_F16: u8 = 1;
const DTYPE_INT8: u8 = 2;

/// Byte alignment of every parameter blob in a v2 artifact.
///
/// 64 covers the widest SIMD lanes and cache lines in common use, and —
/// because mappings are page-aligned — guarantees every blob is a validly
/// aligned `&[f32]` view into the mapped file.
pub const BLOB_ALIGN: usize = 64;

/// Size in bytes of the fixed v2 header (magic, version, align, `total_len`,
/// `head_len`).
pub(crate) const V2_HEADER_LEN: usize = 32;

/// Rounds `n` up to the next multiple of `align` (a power of two).
fn align_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// Conventional file extension for artifacts (`model.fitact`).
pub const FILE_EXTENSION: &str = "fitact";

/// A parameter's native reduced-precision payload (format version 3).
#[derive(Debug, Clone, PartialEq)]
pub enum SavedNative {
    /// Raw IEEE-754 binary16 words, row-major.
    F16(Vec<u16>),
    /// Per-channel affine int8 quantisation (channel = leading dim).
    Int8 {
        /// Quantised values, row-major.
        q: Vec<i8>,
        /// One decode scale per channel.
        scales: Vec<f32>,
        /// One zero-point per channel.
        zero_points: Vec<i8>,
    },
}

/// One parameter tensor, keyed by its deterministic traversal path.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedParam {
    /// Slash-separated traversal path (e.g. `"0/weight"`).
    pub path: String,
    /// Whether the optimiser may update the parameter.
    pub trainable: bool,
    /// Tensor shape.
    pub dims: Vec<usize>,
    /// Row-major values. Empty when the parameter is stored natively in
    /// `native` instead.
    pub data: Vec<f32>,
    /// Reduced-precision payload; `None` for ordinary f32 parameters.
    pub native: Option<SavedNative>,
}

impl SavedParam {
    /// Logical number of scalar values, regardless of storage encoding.
    pub fn numel(&self) -> usize {
        match &self.native {
            Some(SavedNative::F16(words)) => words.len(),
            Some(SavedNative::Int8 { q, .. }) => q.len(),
            None => self.data.len(),
        }
    }

    /// The v3 dtype tag of this parameter's blob.
    fn dtype_tag(&self) -> u8 {
        match &self.native {
            None => DTYPE_F32,
            Some(SavedNative::F16(_)) => DTYPE_F16,
            Some(SavedNative::Int8 { .. }) => DTYPE_INT8,
        }
    }

    /// Exact byte span of this parameter's blob on disk.
    fn blob_byte_len(&self) -> usize {
        match &self.native {
            None => 4 * self.data.len(),
            Some(SavedNative::F16(words)) => 2 * words.len(),
            Some(SavedNative::Int8 { q, scales, .. }) => q.len() + 5 * scales.len(),
        }
    }
}

/// A complete serializable model: topology, parameters and the FitAct
/// protection state (calibration profile + scheme), plus free-form metadata
/// (dataset provenance, pipeline stage, …).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// The network's name.
    pub name: String,
    /// Free-form key/value metadata, preserved in insertion order.
    pub meta: Vec<(String, String)>,
    /// Topology descriptors of the top-level layers.
    pub layers: Vec<LayerSpec>,
    /// Every parameter tensor, in traversal order.
    pub params: Vec<SavedParam>,
    /// The calibrated activation profile, once the calibrate stage has run.
    pub profile: Option<ActivationProfile>,
    /// The applied protection scheme, once the protect stage has run.
    pub scheme: Option<ProtectionScheme>,
}

impl ModelArtifact {
    /// Captures a network's topology and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Nn`] if any layer or activation does not support
    /// serialisation (ephemeral wrappers installed by profiling or fault
    /// injection).
    pub fn capture(network: &Network) -> Result<Self, IoError> {
        let layers = network.to_spec()?;
        let mut params = Vec::new();
        network.visit_params(&mut |path, p| {
            let native = p.native().map(|n| match n {
                fitact_tensor::NativeParam::F16(w) => SavedNative::F16(w.words().to_vec()),
                fitact_tensor::NativeParam::Int8(w) => SavedNative::Int8 {
                    q: w.q().to_vec(),
                    scales: w.scales().to_vec(),
                    zero_points: w.zero_points().to_vec(),
                },
            });
            params.push(SavedParam {
                path: path.to_owned(),
                trainable: p.trainable(),
                dims: p.dims(),
                data: if native.is_some() {
                    Vec::new()
                } else {
                    p.data().as_slice().to_vec()
                },
                native,
            });
        });
        Ok(ModelArtifact {
            name: network.name().to_owned(),
            meta: Vec::new(),
            layers,
            params,
            profile: None,
            scheme: None,
        })
    }

    /// Builder-style attachment of a calibration profile.
    #[must_use]
    pub fn with_profile(mut self, profile: ActivationProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Builder-style attachment of the applied protection scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: ProtectionScheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Sets (or replaces) a metadata key.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => self.meta.push((key, value)),
        }
    }

    /// Looks up a metadata key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Total number of scalar parameter values (logical count, independent
    /// of the storage encoding).
    pub fn num_parameters(&self) -> usize {
        self.params.iter().map(SavedParam::numel).sum()
    }

    /// The format version [`ModelArtifact::to_bytes`] will stamp: 2 for an
    /// all-f32 model (byte-identical to the previous revision), 3 when any
    /// parameter is stored in a native reduced-precision encoding.
    pub fn format_version(&self) -> u32 {
        if self.params.iter().any(|p| p.native.is_some()) {
            FORMAT_VERSION_NATIVE
        } else {
            FORMAT_VERSION
        }
    }

    /// Rebuilds the network: topology from the specs, then every parameter
    /// tensor restored bit-exactly in traversal order.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Nn`] for unreconstructible topology and
    /// [`IoError::Mismatch`] when the saved parameter list does not line up
    /// with the rebuilt network (wrong count, path or shape) — which means
    /// the artifact was hand-edited or the format contract was broken.
    pub fn instantiate(&self) -> Result<Network, IoError> {
        instantiate_with(&self.name, &self.layers, self)
    }

    /// Encodes the artifact into its binary form: head followed by
    /// alignment-padded parameter blobs. All-f32 models encode as format
    /// version 2 (byte-identical to the previous revision); models with
    /// native f16/int8 parameters encode as version 3 (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let version = self.format_version();
        // Two-pass: encode the head once with placeholder offsets to learn
        // its length (offsets are fixed-width `u64`s, so the real head is
        // byte-for-byte the same size), then lay the blobs out after it.
        let placeholder = vec![0u64; self.params.len()];
        let head_len = self.encode_blob_head(&placeholder, version).len();
        let mut offsets = Vec::with_capacity(self.params.len());
        let mut cursor = V2_HEADER_LEN + head_len;
        for p in &self.params {
            let offset = align_up(cursor, BLOB_ALIGN);
            offsets.push(offset as u64);
            cursor = offset + p.blob_byte_len();
        }
        let total_len = cursor;
        let head = self.encode_blob_head(&offsets, version);
        debug_assert_eq!(head.len(), head_len);
        let mut out = Vec::with_capacity(total_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(BLOB_ALIGN as u32).to_le_bytes());
        out.extend_from_slice(&(total_len as u64).to_le_bytes());
        out.extend_from_slice(&(head_len as u64).to_le_bytes());
        out.extend_from_slice(&head);
        for (p, &offset) in self.params.iter().zip(&offsets) {
            out.resize(offset as usize, 0); // zero padding up to the blob
            match &p.native {
                None => {
                    for v in &p.data {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Some(SavedNative::F16(words)) => {
                    for w in words {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
                Some(SavedNative::Int8 {
                    q,
                    scales,
                    zero_points,
                }) => {
                    out.extend(q.iter().map(|&v| v as u8));
                    for s in scales {
                        out.extend_from_slice(&s.to_le_bytes());
                    }
                    out.extend(zero_points.iter().map(|&v| v as u8));
                }
            }
        }
        debug_assert_eq!(out.len(), total_len);
        out
    }

    /// Encodes the v2/v3 head (everything between the fixed header and the
    /// first blob) with the given per-parameter blob offsets. Version 3
    /// inserts a dtype tag (and an int8 channel count) per param record;
    /// version 2 is the tag-free legacy layout.
    fn encode_blob_head(&self, offsets: &[u64], version: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.string(&self.name);
        w.u32(self.meta.len() as u32);
        for (k, v) in &self.meta {
            w.string(k);
            w.string(v);
        }
        w.u32(self.layers.len() as u32);
        for layer in &self.layers {
            write_layer_spec(&mut w, layer);
        }
        w.u32(self.params.len() as u32);
        for (p, &offset) in self.params.iter().zip(offsets) {
            w.string(&p.path);
            w.u8(u8::from(p.trainable));
            if version >= FORMAT_VERSION_NATIVE {
                w.u8(p.dtype_tag());
                if let Some(SavedNative::Int8 { scales, .. }) = &p.native {
                    w.u32(scales.len() as u32);
                }
            }
            w.usize_slice(&p.dims);
            w.u64(offset);
            w.u64(p.numel() as u64);
        }
        match &self.profile {
            Some(profile) => {
                w.u8(1);
                w.u32(profile.slots.len() as u32);
                for slot in &profile.slots {
                    w.string(&slot.label);
                    w.usize_slice(&slot.feature_shape);
                    w.f32(slot.layer_max);
                    w.f32_slice(&slot.per_neuron_max);
                }
            }
            None => w.u8(0),
        }
        match &self.scheme {
            Some(scheme) => {
                let (tag, slope) = scheme.to_tag();
                w.u8(1);
                w.u8(tag);
                w.f32(slope);
            }
            None => w.u8(0),
        }
        w.into_bytes()
    }

    /// Decodes an artifact from its binary form (format version 1 or 2).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::BadMagic`] for non-artifact input,
    /// [`IoError::UnsupportedVersion`] for artifacts from an incompatible
    /// format revision, [`IoError::Truncated`] for short input and
    /// [`IoError::Corrupt`] for structurally invalid content (unknown tags,
    /// shape/data disagreements, trailing garbage).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut r = ByteReader::new(bytes);
        if r.raw(8)? != MAGIC {
            return Err(IoError::BadMagic);
        }
        match r.u32()? {
            1 => Self::from_bytes_v1(r),
            2 | 3 => {
                let head = decode_v2(bytes)?;
                // Copy every blob out into an owned buffer, byte-wise so the
                // owned decode path stays endian-correct everywhere.
                let params = head
                    .params
                    .into_iter()
                    .map(|p| {
                        let raw = &bytes[p.byte_offset..p.byte_offset + p.byte_len()];
                        let (data, native) = match p.encoding {
                            BlobEncoding::F32 => (
                                raw.chunks_exact(4)
                                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                                    .collect(),
                                None,
                            ),
                            BlobEncoding::F16 => (
                                Vec::new(),
                                Some(SavedNative::F16(
                                    raw.chunks_exact(2)
                                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                                        .collect(),
                                )),
                            ),
                            BlobEncoding::Int8 { channels } => {
                                let (qraw, rest) = raw.split_at(p.numel);
                                let (sraw, zraw) = rest.split_at(4 * channels);
                                (
                                    Vec::new(),
                                    Some(SavedNative::Int8 {
                                        q: qraw.iter().map(|&b| b as i8).collect(),
                                        scales: sraw
                                            .chunks_exact(4)
                                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                                            .collect(),
                                        zero_points: zraw.iter().map(|&b| b as i8).collect(),
                                    }),
                                )
                            }
                        };
                        SavedParam {
                            path: p.path,
                            trainable: p.trainable,
                            dims: p.dims,
                            data,
                            native,
                        }
                    })
                    .collect();
                Ok(ModelArtifact {
                    name: head.name,
                    meta: head.meta,
                    layers: head.layers,
                    params,
                    profile: head.profile,
                    scheme: head.scheme,
                })
            }
            other => Err(IoError::UnsupportedVersion(other)),
        }
    }

    /// Decodes the legacy v1 body; `r` is positioned just past the version.
    fn from_bytes_v1(mut r: ByteReader<'_>) -> Result<Self, IoError> {
        let name = r.string()?;
        let meta = read_meta(&mut r)?;
        let layers = read_layer_list(&mut r)?;
        let param_count = r.u32()? as usize;
        let mut params = Vec::with_capacity(param_count.min(1024));
        for _ in 0..param_count {
            let path = r.string()?;
            let trainable = r.u8()? != 0;
            let dims = r.usize_vec()?;
            let data = r.f32_vec()?;
            // Checked: dims are untrusted values (the length guards above
            // only bound element *counts*), so the product must not be
            // allowed to overflow-panic or wrap.
            let numel = checked_numel(&path, &dims)?;
            if numel != data.len() {
                return Err(IoError::Corrupt(format!(
                    "parameter `{path}` declares shape {dims:?} ({numel} values) but carries {}",
                    data.len()
                )));
            }
            params.push(SavedParam {
                path,
                trainable,
                dims,
                data,
                native: None,
            });
        }
        let profile = read_profile(&mut r)?;
        let scheme = read_scheme(&mut r)?;
        if !r.is_exhausted() {
            return Err(IoError::Corrupt(format!(
                "{} trailing bytes after the artifact",
                r.remaining()
            )));
        }
        Ok(ModelArtifact {
            name,
            meta,
            layers,
            params,
            profile,
            scheme,
        })
    }

    /// Writes the artifact to a file by atomic rename, so a server still
    /// mapping the file it replaces keeps reading the old, intact inode
    /// (the deployment contract in `docs/artifact-format.md`).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        crate::write_atomically(path.as_ref(), &self.to_bytes())
    }

    /// Reads an artifact from a file.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] on filesystem failure, plus every
    /// [`ModelArtifact::from_bytes`] decoding error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let bytes = std::fs::read(path)?;
        ModelArtifact::from_bytes(&bytes)
    }

    /// Convenience: captures `network` together with its protection state.
    ///
    /// # Errors
    ///
    /// As for [`ModelArtifact::capture`].
    pub fn capture_protected(
        network: &Network,
        profile: Option<&ActivationProfile>,
        scheme: Option<ProtectionScheme>,
    ) -> Result<Self, IoError> {
        let mut artifact = ModelArtifact::capture(network)?;
        artifact.profile = profile.cloned();
        artifact.scheme = scheme;
        Ok(artifact)
    }
}

/// The number of scalar parameter values the layer built from `spec` will
/// allocate, with checked arithmetic (`None` on overflow).
///
/// Must agree exactly with what each constructor allocates — the match is
/// exhaustive, so adding a [`LayerSpec`] variant forces an update here, and
/// the round-trip suites fail loudly if the count drifts.
fn spec_param_numel(spec: &LayerSpec) -> Option<u128> {
    let mul = |a: usize, b: usize| (a as u128).checked_mul(b as u128);
    match spec {
        LayerSpec::Linear {
            in_features,
            out_features,
        } => {
            // weight [out, in] + bias [out]
            mul(*out_features, *in_features)?.checked_add(*out_features as u128)
        }
        LayerSpec::Conv2d {
            in_channels,
            out_channels,
            kernel,
            ..
        } => {
            // weight [oc, ic, k, k] + bias [oc]
            mul(*in_channels, *kernel)?
                .checked_mul(*kernel as u128)?
                .checked_mul(*out_channels as u128)?
                .checked_add(*out_channels as u128)
        }
        // gamma + beta + running mean + running var
        LayerSpec::BatchNorm2d { channels } => mul(*channels, 4),
        LayerSpec::Activation { activation, .. } => match activation.kind.as_str() {
            // One λ word per neuron / channel; the counts are the builder's
            // ints[0] payload (validated again at construction).
            "fitrelu" | "fitrelu_naive" | "channel_relu" => {
                Some(activation.ints.first().copied().unwrap_or(0) as u128)
            }
            _ => Some(0),
        },
        LayerSpec::Dropout { .. }
        | LayerSpec::Flatten
        | LayerSpec::MaxPool2d { .. }
        | LayerSpec::GlobalAvgPool => Some(0),
        LayerSpec::Sequential(children) => children
            .iter()
            .try_fold(0u128, |acc, c| acc.checked_add(spec_param_numel(c)?)),
        LayerSpec::Bottleneck {
            main,
            shortcut,
            final_act,
        } => {
            let mut total = main
                .iter()
                .try_fold(0u128, |acc, c| acc.checked_add(spec_param_numel(c)?))?;
            if let Some(children) = shortcut {
                for c in children {
                    total = total.checked_add(spec_param_numel(c)?)?;
                }
            }
            total.checked_add(spec_param_numel(final_act)?)
        }
    }
}

/// Refuses an activation slot whose activation carries a different feature
/// count than the slot's `feature_shape`: such a network would instantiate
/// and then fail every forward. The feature-bound kinds carry their count
/// in `ints` (`channel_relu`: channels × plane, `fitrelu` and
/// `fitrelu_naive`: neurons); layer-bound kinds fit any shape, and a
/// missing count is left to the builder's own typed error.
fn check_slot_widths(spec: &LayerSpec) -> Result<(), IoError> {
    match spec {
        LayerSpec::Activation {
            label,
            feature_shape,
            activation,
        } => {
            let ints = &activation.ints;
            let carried = match activation.kind.as_str() {
                "channel_relu" => ints
                    .first()
                    .zip(ints.get(1))
                    .map(|(&c, &p)| c as u128 * p as u128),
                "fitrelu" | "fitrelu_naive" => ints.first().map(|&n| n as u128),
                _ => None,
            };
            let slot = feature_shape
                .iter()
                .try_fold(1u128, |acc, &d| acc.checked_mul(d as u128));
            match carried {
                Some(carried) if Some(carried) != slot => Err(IoError::Mismatch(format!(
                    "activation slot `{label}` has feature shape {feature_shape:?}, but its \
                     `{}` activation carries {carried} features",
                    activation.kind
                ))),
                _ => Ok(()),
            }
        }
        LayerSpec::Linear { .. }
        | LayerSpec::Conv2d { .. }
        | LayerSpec::BatchNorm2d { .. }
        | LayerSpec::Dropout { .. }
        | LayerSpec::Flatten
        | LayerSpec::MaxPool2d { .. }
        | LayerSpec::GlobalAvgPool => Ok(()),
        LayerSpec::Sequential(children) => children.iter().try_for_each(check_slot_widths),
        LayerSpec::Bottleneck {
            main,
            shortcut,
            final_act,
        } => main
            .iter()
            .chain(shortcut.iter().flatten())
            .chain(std::iter::once(final_act.as_ref()))
            .try_for_each(check_slot_widths),
    }
}

/// Restores a parameter snapshot-compatible tensor from a [`SavedParam`].
pub fn saved_param_tensor(p: &SavedParam) -> Result<Tensor, IoError> {
    Tensor::from_vec(p.data.clone(), &p.dims)
        .map_err(|e| IoError::Corrupt(format!("parameter `{}` is not a tensor: {e}", p.path)))
}

/// The checked product of untrusted dims (the length guards in
/// [`ByteReader`] only bound element *counts*, so the product must not be
/// allowed to overflow-panic or wrap).
fn checked_numel(path: &str, dims: &[usize]) -> Result<usize, IoError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| {
            IoError::Corrupt(format!(
                "parameter `{path}` declares an overflowing shape {dims:?}"
            ))
        })
}

fn read_meta(r: &mut ByteReader<'_>) -> Result<Vec<(String, String)>, IoError> {
    let meta_count = r.u32()? as usize;
    let mut meta = Vec::with_capacity(meta_count.min(1024));
    for _ in 0..meta_count {
        let k = r.string()?;
        let v = r.string()?;
        // Keys are unique by construction ([`ModelArtifact::set_meta`]
        // replaces); duplicates in the wire format mean the artifact was
        // produced by something else, and silently keeping one of the
        // two values would make `meta()` lookups writer-dependent.
        if meta
            .iter()
            .any(|(existing, _): &(String, String)| *existing == k)
        {
            return Err(IoError::Corrupt(format!("duplicate metadata key `{k}`")));
        }
        meta.push((k, v));
    }
    Ok(meta)
}

fn read_layer_list(r: &mut ByteReader<'_>) -> Result<Vec<LayerSpec>, IoError> {
    let layer_count = r.u32()? as usize;
    let mut layers = Vec::with_capacity(layer_count.min(1024));
    for _ in 0..layer_count {
        layers.push(read_layer_spec(r, 0)?);
    }
    Ok(layers)
}

fn read_profile(r: &mut ByteReader<'_>) -> Result<Option<ActivationProfile>, IoError> {
    if r.u8()? == 0 {
        return Ok(None);
    }
    let slot_count = r.u32()? as usize;
    let mut slots = Vec::with_capacity(slot_count.min(1024));
    for _ in 0..slot_count {
        let label = r.string()?;
        let feature_shape = r.usize_vec()?;
        let layer_max = r.f32()?;
        let per_neuron_max = r.f32_vec()?;
        slots.push(SlotProfile {
            label,
            feature_shape,
            per_neuron_max,
            layer_max,
        });
    }
    Ok(Some(ActivationProfile { slots }))
}

fn read_scheme(r: &mut ByteReader<'_>) -> Result<Option<ProtectionScheme>, IoError> {
    if r.u8()? == 0 {
        return Ok(None);
    }
    let tag = r.u8()?;
    let slope = r.f32()?;
    ProtectionScheme::from_tag(tag, slope)
        .map(Some)
        .ok_or_else(|| IoError::Corrupt(format!("unknown protection-scheme tag {tag}")))
}

/// Blob storage encoding of one v2/v3 parameter record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlobEncoding {
    /// 4 bytes per element, little-endian IEEE-754 binary32.
    F32,
    /// 2 bytes per element, raw binary16 words.
    F16,
    /// 1 byte per element plus `channels` trailing (f32 scale, i8 zero-point)
    /// pairs.
    Int8 {
        /// Quantisation channel count (= leading dim).
        channels: usize,
    },
}

impl BlobEncoding {
    /// Exact byte span of a blob holding `numel` elements.
    pub(crate) fn byte_len(self, numel: usize) -> Option<usize> {
        match self {
            BlobEncoding::F32 => numel.checked_mul(4),
            BlobEncoding::F16 => numel.checked_mul(2),
            BlobEncoding::Int8 { channels } => numel.checked_add(channels.checked_mul(5)?),
        }
    }
}

/// One parameter record of a decoded v2/v3 head: shape plus the location of
/// its blob inside the file, with the values themselves left in place.
#[derive(Debug, Clone)]
pub(crate) struct V2Param {
    pub(crate) path: String,
    pub(crate) trainable: bool,
    pub(crate) dims: Vec<usize>,
    /// Blob storage encoding ([`BlobEncoding::F32`] in every v2 file).
    pub(crate) encoding: BlobEncoding,
    /// Absolute byte offset of the blob, a multiple of the file's alignment.
    pub(crate) byte_offset: usize,
    /// Logical element count of the blob (the byte span depends on the
    /// encoding; see [`V2Param::byte_len`]).
    pub(crate) numel: usize,
}

impl V2Param {
    /// Exact byte span of this record's blob (validated in-bounds by
    /// [`decode_v2`]).
    pub(crate) fn byte_len(&self) -> usize {
        self.encoding
            .byte_len(self.numel)
            .expect("validated by decode_v2")
    }
}

/// A fully validated v2 head: everything in the artifact except the
/// parameter values, which stay in the caller's byte buffer at the offsets
/// recorded in [`V2Param`].
#[derive(Debug)]
pub(crate) struct V2Artifact {
    pub(crate) name: String,
    pub(crate) meta: Vec<(String, String)>,
    pub(crate) layers: Vec<LayerSpec>,
    pub(crate) params: Vec<V2Param>,
    pub(crate) profile: Option<ActivationProfile>,
    pub(crate) scheme: Option<ProtectionScheme>,
}

/// Decodes and validates a v2 artifact head against the full file contents
/// (owned bytes or a read-only mapping), without copying any blob.
///
/// On success every recorded blob span is alignment-checked and in-bounds:
/// `byte_offset % align == 0` and
/// `head_end <= byte_offset <= byte_offset + 4 * numel <= bytes.len()`,
/// with `bytes.len() == total_len` exactly.
pub(crate) fn decode_v2(bytes: &[u8]) -> Result<V2Artifact, IoError> {
    let mut header = ByteReader::new(bytes);
    if header.raw(8)? != MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = header.u32()?;
    if version != 2 && version != 3 {
        return Err(IoError::UnsupportedVersion(version));
    }
    let align = header.u32()? as usize;
    if !align.is_power_of_two() || !(4..=65536).contains(&align) {
        return Err(IoError::Corrupt(format!("invalid blob alignment {align}")));
    }
    let total_len = read_usize_from(header.u64()?)?;
    let head_len = read_usize_from(header.u64()?)?;
    if bytes.len() < total_len {
        return Err(IoError::Truncated {
            needed: total_len,
            remaining: bytes.len(),
        });
    }
    if bytes.len() > total_len {
        return Err(IoError::Corrupt(format!(
            "{} trailing bytes after the artifact",
            bytes.len() - total_len
        )));
    }
    let head_end = V2_HEADER_LEN
        .checked_add(head_len)
        .filter(|&end| end <= total_len)
        .ok_or_else(|| {
            IoError::Corrupt(format!(
                "head length {head_len} does not fit in the file ({total_len} bytes)"
            ))
        })?;
    let mut r = ByteReader::new(&bytes[V2_HEADER_LEN..head_end]);
    let name = r.string()?;
    let meta = read_meta(&mut r)?;
    let layers = read_layer_list(&mut r)?;
    let param_count = r.u32()? as usize;
    let mut params = Vec::with_capacity(param_count.min(1024));
    for _ in 0..param_count {
        let path = r.string()?;
        let trainable = r.u8()? != 0;
        let encoding = if version >= 3 {
            match r.u8()? {
                DTYPE_F32 => BlobEncoding::F32,
                DTYPE_F16 => BlobEncoding::F16,
                DTYPE_INT8 => BlobEncoding::Int8 {
                    channels: r.u32()? as usize,
                },
                other => {
                    return Err(IoError::Corrupt(format!(
                        "parameter `{path}` has unknown dtype tag {other}"
                    )))
                }
            }
        } else {
            BlobEncoding::F32
        };
        let dims = r.usize_vec()?;
        let byte_offset = read_usize_from(r.u64()?)?;
        let numel = read_usize_from(r.u64()?)?;
        let implied = checked_numel(&path, &dims)?;
        if implied != numel {
            return Err(IoError::Corrupt(format!(
                "parameter `{path}` declares shape {dims:?} ({implied} values) but carries {numel}"
            )));
        }
        if let BlobEncoding::Int8 { channels } = encoding {
            // The quantisation channel is the leading dim; a disagreeing
            // count means the artifact was hand-edited.
            if dims.first().copied().unwrap_or(0) != channels {
                return Err(IoError::Corrupt(format!(
                    "parameter `{path}` declares {channels} int8 channels but its \
                     leading dim is {:?}",
                    dims.first()
                )));
            }
        }
        if byte_offset % align != 0 {
            return Err(IoError::Corrupt(format!(
                "parameter `{path}` blob offset {byte_offset} is not {align}-aligned"
            )));
        }
        let end = encoding
            .byte_len(numel)
            .and_then(|len| byte_offset.checked_add(len))
            .filter(|&end| byte_offset >= head_end && end <= total_len)
            .ok_or_else(|| {
                IoError::Corrupt(format!(
                    "parameter `{path}` blob [{byte_offset}, +{numel} values) escapes the file"
                ))
            })?;
        debug_assert!(end <= bytes.len());
        params.push(V2Param {
            path,
            trainable,
            dims,
            encoding,
            byte_offset,
            numel,
        });
    }
    let profile = read_profile(&mut r)?;
    let scheme = read_scheme(&mut r)?;
    if !r.is_exhausted() {
        return Err(IoError::Corrupt(format!(
            "{} trailing bytes after the artifact head",
            r.remaining()
        )));
    }
    Ok(V2Artifact {
        name,
        meta,
        layers,
        params,
        profile,
        scheme,
    })
}

fn read_usize_from(raw: u64) -> Result<usize, IoError> {
    usize::try_from(raw)
        .map_err(|_| IoError::Corrupt(format!("value {raw} exceeds the address space")))
}

/// An ordered parameter list a network can be instantiated from: the
/// in-memory [`ModelArtifact`] (owned values) and the mmap-backed
/// [`crate::MappedArtifact`] (tensors borrowing the shared mapping) both
/// implement it, so restore semantics — and every error message — stay
/// identical across the two load paths.
pub(crate) trait ParamSource {
    /// Number of parameter records.
    fn count(&self) -> usize;
    /// Total scalar values across all records (overflow-proof).
    fn total_values(&self) -> u128;
    /// Traversal path of record `i`.
    fn path(&self, i: usize) -> &str;
    /// Whether record `i` is optimiser-visible.
    fn trainable(&self, i: usize) -> bool;
    /// Shape of record `i`.
    fn dims(&self, i: usize) -> &[usize];
    /// Materialises record `i` as a tensor (owned or shared-storage).
    fn tensor(&self, i: usize) -> Result<Tensor, IoError>;
    /// Materialises record `i`'s native reduced-precision storage, when it
    /// has one (f16 words may borrow a shared mapping). `Ok(None)` for
    /// ordinary f32 records.
    fn native(&self, _i: usize) -> Result<Option<fitact_tensor::NativeParam>, IoError> {
        Ok(None)
    }
}

impl ParamSource for ModelArtifact {
    fn count(&self) -> usize {
        self.params.len()
    }
    fn total_values(&self) -> u128 {
        self.params.iter().map(|p| p.numel() as u128).sum()
    }
    fn path(&self, i: usize) -> &str {
        &self.params[i].path
    }
    fn trainable(&self, i: usize) -> bool {
        self.params[i].trainable
    }
    fn dims(&self, i: usize) -> &[usize] {
        &self.params[i].dims
    }
    fn tensor(&self, i: usize) -> Result<Tensor, IoError> {
        saved_param_tensor(&self.params[i])
    }
    fn native(&self, i: usize) -> Result<Option<fitact_tensor::NativeParam>, IoError> {
        let p = &self.params[i];
        let corrupt = |e: fitact_tensor::TensorError| {
            IoError::Corrupt(format!("parameter `{}` native payload: {e}", p.path))
        };
        match &p.native {
            None => Ok(None),
            Some(SavedNative::F16(words)) => {
                fitact_tensor::F16Param::from_words(words.clone(), &p.dims)
                    .map(|w| Some(fitact_tensor::NativeParam::F16(w)))
                    .map_err(corrupt)
            }
            Some(SavedNative::Int8 {
                q,
                scales,
                zero_points,
            }) => fitact_tensor::Int8Param::from_parts(
                q.clone(),
                scales.clone(),
                zero_points.clone(),
                &p.dims,
            )
            .map(|w| Some(fitact_tensor::NativeParam::Int8(w)))
            .map_err(corrupt),
        }
    }
}

/// Rebuilds a network from topology specs plus a parameter source; see
/// [`ModelArtifact::instantiate`] for the contract.
pub(crate) fn instantiate_with(
    name: &str,
    layers: &[LayerSpec],
    source: &dyn ParamSource,
) -> Result<Network, IoError> {
    // Allocation guard: layer constructors allocate the parameter
    // tensors the specs imply, and the specs are untrusted — a crafted
    // `Linear { 1<<30, 1<<30 }` would abort the process on allocation
    // failure before the parameter-list check below could reject it.
    // The implied parameter count must equal the saved one exactly (the
    // restore is 1:1), so mismatches are caught here, pre-allocation.
    let implied = layers
        .iter()
        .try_fold(0u128, |acc, spec| Some(acc + spec_param_numel(spec)?))
        .ok_or_else(|| {
            IoError::Mismatch("topology implies an overflowing parameter count".into())
        })?;
    if implied != source.total_values() {
        return Err(IoError::Mismatch(format!(
            "topology implies {implied} parameter values but the artifact carries {}",
            source.total_values()
        )));
    }
    layers.iter().try_for_each(check_slot_widths)?;
    let mut network = Network::from_spec(name, layers, &ProtectedActivations)?;
    let mut index = 0usize;
    let mut failure: Option<IoError> = None;
    network.visit_params_mut(&mut |path, p| {
        if failure.is_some() {
            return;
        }
        if index >= source.count() {
            failure = Some(IoError::Mismatch(format!(
                "network has more parameters than the artifact ({} saved); first extra: `{path}`",
                source.count()
            )));
            return;
        }
        if source.path(index) != path {
            failure = Some(IoError::Mismatch(format!(
                "parameter #{index} path mismatch: artifact has `{}`, network has `{path}`",
                source.path(index)
            )));
            return;
        }
        if p.data().dims() != source.dims(index) {
            failure = Some(IoError::Mismatch(format!(
                "parameter `{path}` shape mismatch: artifact has {:?}, network has {:?}",
                source.dims(index),
                p.data().dims()
            )));
            return;
        }
        match source.native(index) {
            // Native records move the parameter into reduced-precision
            // storage (freezing it); `set_native` cannot panic because the
            // shape was just checked and the source validated its payload.
            Ok(Some(native)) => p.set_native(native),
            Ok(None) => match source.tensor(index) {
                // Replace the constructor-allocated tensor outright (the
                // shape was just checked) so a shared-storage tensor stays
                // shared instead of being copied element-wise.
                Ok(tensor) => *p.data_mut() = tensor,
                Err(e) => {
                    failure = Some(e);
                    return;
                }
            },
            Err(e) => {
                failure = Some(e);
                return;
            }
        }
        if source.trainable(index) {
            p.unfreeze();
        } else {
            p.freeze();
        }
        index += 1;
    });
    if let Some(err) = failure {
        return Err(err);
    }
    if index != source.count() {
        return Err(IoError::Mismatch(format!(
            "artifact has {} parameters but the network consumed only {index}",
            source.count()
        )));
    }
    Ok(network)
}

// Layer-spec tags are append-only (see the module docs' versioning policy).
const TAG_LINEAR: u8 = 0;
const TAG_CONV2D: u8 = 1;
const TAG_BATCHNORM2D: u8 = 2;
const TAG_ACTIVATION: u8 = 3;
const TAG_DROPOUT: u8 = 4;
const TAG_FLATTEN: u8 = 5;
const TAG_MAXPOOL2D: u8 = 6;
const TAG_GLOBAL_AVG_POOL: u8 = 7;
const TAG_SEQUENTIAL: u8 = 8;
const TAG_BOTTLENECK: u8 = 9;

/// Maximum spec-tree nesting the reader accepts (defence against crafted
/// deeply-recursive input overflowing the stack).
const MAX_SPEC_DEPTH: usize = 64;

fn write_layer_spec(w: &mut ByteWriter, spec: &LayerSpec) {
    match spec {
        LayerSpec::Linear {
            in_features,
            out_features,
        } => {
            w.u8(TAG_LINEAR);
            w.len(*in_features);
            w.len(*out_features);
        }
        LayerSpec::Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            w.u8(TAG_CONV2D);
            w.len(*in_channels);
            w.len(*out_channels);
            w.len(*kernel);
            w.len(*stride);
            w.len(*padding);
        }
        LayerSpec::BatchNorm2d { channels } => {
            w.u8(TAG_BATCHNORM2D);
            w.len(*channels);
        }
        LayerSpec::Activation {
            label,
            feature_shape,
            activation,
        } => {
            w.u8(TAG_ACTIVATION);
            w.string(label);
            w.usize_slice(feature_shape);
            w.string(&activation.kind);
            w.f32_slice(&activation.floats);
            w.u64_slice(&activation.ints);
        }
        LayerSpec::Dropout { p, seed } => {
            w.u8(TAG_DROPOUT);
            w.f32(*p);
            w.u64(*seed);
        }
        LayerSpec::Flatten => w.u8(TAG_FLATTEN),
        LayerSpec::MaxPool2d { kernel, stride } => {
            w.u8(TAG_MAXPOOL2D);
            w.len(*kernel);
            w.len(*stride);
        }
        LayerSpec::GlobalAvgPool => w.u8(TAG_GLOBAL_AVG_POOL),
        LayerSpec::Sequential(children) => {
            w.u8(TAG_SEQUENTIAL);
            w.u32(children.len() as u32);
            for child in children {
                write_layer_spec(w, child);
            }
        }
        LayerSpec::Bottleneck {
            main,
            shortcut,
            final_act,
        } => {
            w.u8(TAG_BOTTLENECK);
            w.u32(main.len() as u32);
            for child in main {
                write_layer_spec(w, child);
            }
            match shortcut {
                Some(children) => {
                    w.u8(1);
                    w.u32(children.len() as u32);
                    for child in children {
                        write_layer_spec(w, child);
                    }
                }
                None => w.u8(0),
            }
            write_layer_spec(w, final_act);
        }
    }
}

fn read_usize(r: &mut ByteReader<'_>) -> Result<usize, IoError> {
    let raw = r.u64()?;
    usize::try_from(raw)
        .map_err(|_| IoError::Corrupt(format!("value {raw} exceeds the address space")))
}

fn read_layer_spec(r: &mut ByteReader<'_>, depth: usize) -> Result<LayerSpec, IoError> {
    if depth > MAX_SPEC_DEPTH {
        return Err(IoError::Corrupt(format!(
            "layer-spec tree deeper than {MAX_SPEC_DEPTH}"
        )));
    }
    let tag = r.u8()?;
    match tag {
        TAG_LINEAR => Ok(LayerSpec::Linear {
            in_features: read_usize(r)?,
            out_features: read_usize(r)?,
        }),
        TAG_CONV2D => Ok(LayerSpec::Conv2d {
            in_channels: read_usize(r)?,
            out_channels: read_usize(r)?,
            kernel: read_usize(r)?,
            stride: read_usize(r)?,
            padding: read_usize(r)?,
        }),
        TAG_BATCHNORM2D => Ok(LayerSpec::BatchNorm2d {
            channels: read_usize(r)?,
        }),
        TAG_ACTIVATION => Ok(LayerSpec::Activation {
            label: r.string()?,
            feature_shape: r.usize_vec()?,
            activation: ActivationSpec {
                kind: r.string()?,
                floats: r.f32_vec()?,
                ints: r.u64_vec()?,
            },
        }),
        TAG_DROPOUT => Ok(LayerSpec::Dropout {
            p: r.f32()?,
            seed: r.u64()?,
        }),
        TAG_FLATTEN => Ok(LayerSpec::Flatten),
        TAG_MAXPOOL2D => Ok(LayerSpec::MaxPool2d {
            kernel: read_usize(r)?,
            stride: read_usize(r)?,
        }),
        TAG_GLOBAL_AVG_POOL => Ok(LayerSpec::GlobalAvgPool),
        TAG_SEQUENTIAL => {
            let count = r.u32()? as usize;
            let mut children = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                children.push(read_layer_spec(r, depth + 1)?);
            }
            Ok(LayerSpec::Sequential(children))
        }
        TAG_BOTTLENECK => {
            let main_count = r.u32()? as usize;
            let mut main = Vec::with_capacity(main_count.min(1024));
            for _ in 0..main_count {
                main.push(read_layer_spec(r, depth + 1)?);
            }
            let shortcut = if r.u8()? != 0 {
                let count = r.u32()? as usize;
                let mut children = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    children.push(read_layer_spec(r, depth + 1)?);
                }
                Some(children)
            } else {
                None
            };
            let final_act = read_layer_spec(r, depth + 1)?;
            if !matches!(final_act, LayerSpec::Activation { .. }) {
                return Err(IoError::Corrupt(
                    "bottleneck final activation is not an activation slot".into(),
                ));
            }
            Ok(LayerSpec::Bottleneck {
                main,
                shortcut,
                final_act: Box::new(final_act),
            })
        }
        other => Err(IoError::Corrupt(format!("unknown layer-spec tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Network {
        let mut rng = StdRng::seed_from_u64(1);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(4, 6, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h", &[6])))
                .with(Box::new(Linear::new(6, 2, &mut rng))),
        )
    }

    #[test]
    fn capture_encode_decode_instantiate_is_bit_exact() {
        let net = mlp();
        let artifact = ModelArtifact::capture(&net).unwrap();
        let bytes = artifact.to_bytes();
        let decoded = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, artifact);
        let rebuilt = decoded.instantiate().unwrap();
        assert_eq!(rebuilt.name(), "mlp");
        for (a, b) in net.params().iter().zip(rebuilt.params()) {
            assert_eq!(a.data(), b.data());
            assert_eq!(a.trainable(), b.trainable());
        }
    }

    #[test]
    fn metadata_round_trips_in_order() {
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.set_meta("dataset", "blobs");
        artifact.set_meta("seed", "7");
        artifact.set_meta("dataset", "synthetic-cifar"); // replace
        let decoded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(decoded.meta("dataset"), Some("synthetic-cifar"));
        assert_eq!(decoded.meta("seed"), Some("7"));
        assert_eq!(decoded.meta("missing"), None);
    }

    #[test]
    fn bad_magic_wrong_version_truncation_trailing() {
        let bytes = ModelArtifact::capture(&mlp()).unwrap().to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ModelArtifact::from_bytes(&bad),
            Err(IoError::BadMagic)
        ));
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(&wrong),
            Err(IoError::UnsupportedVersion(99))
        ));
        // Every truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            let err = ModelArtifact::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, IoError::Truncated { .. } | IoError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
        // Trailing garbage is rejected.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            ModelArtifact::from_bytes(&trailing),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn mismatched_parameter_lists_are_rejected() {
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.params.pop();
        assert!(matches!(artifact.instantiate(), Err(IoError::Mismatch(_))));
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.params[0].path = "not/the/weight".into();
        assert!(matches!(artifact.instantiate(), Err(IoError::Mismatch(_))));
    }

    #[test]
    fn hostile_topology_is_rejected_before_allocation() {
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        // 2^60 weight elements: must fail with a typed error before the
        // constructor tries (and fails) to allocate them.
        artifact.layers[0] = LayerSpec::Linear {
            in_features: 1 << 30,
            out_features: 1 << 30,
        };
        assert!(matches!(artifact.instantiate(), Err(IoError::Mismatch(_))));
        // Same via a hostile activation spec.
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.layers[1] = LayerSpec::Activation {
            label: "h".into(),
            feature_shape: vec![6],
            activation: ActivationSpec {
                kind: "fitrelu".into(),
                floats: vec![8.0],
                ints: vec![u64::MAX],
            },
        };
        assert!(matches!(artifact.instantiate(), Err(IoError::Mismatch(_))));
    }

    #[test]
    fn activation_whose_width_disagrees_with_its_slot_is_rejected() {
        use fitact::{BoundedRelu, FitRelu};
        use fitact_nn::Activation;
        let slot_of = |activation: Box<dyn Activation>| {
            let mut rng = StdRng::seed_from_u64(2);
            let net = Network::new(
                "slot",
                Sequential::new()
                    .with(Box::new(Linear::new(3, 4, &mut rng)))
                    .with(Box::new(ActivationLayer::with_activation(
                        "h",
                        &[4],
                        activation,
                    ))),
            );
            ModelArtifact::capture(&net).unwrap()
        };
        // Each activation carries as many λ words as its spec claims, so the
        // parameter-count guard passes; only the width check stops a network
        // whose every forward would fail.
        let misfits: Vec<(&str, Box<dyn Activation>)> = vec![
            (
                "channel_relu",
                Box::new(BoundedRelu::per_channel(&[1.0; 4], 2)),
            ),
            ("fitrelu", Box::new(FitRelu::from_bounds(&[1.0; 5], 8.0))),
            (
                "fitrelu_naive",
                Box::new(BoundedRelu::per_neuron(&[1.0; 5])),
            ),
        ];
        for (kind, activation) in misfits {
            match slot_of(activation).instantiate() {
                Err(IoError::Mismatch(msg)) => {
                    assert!(msg.contains("`h`") && msg.contains(kind), "{msg}");
                }
                other => panic!("{kind} in a [4] slot: expected a Mismatch, got {other:?}"),
            }
        }
        // Matching widths, and layer-bound kinds at any width, still load.
        let fits: Vec<Box<dyn Activation>> = vec![
            Box::new(BoundedRelu::per_channel(&[1.0; 2], 2)),
            Box::new(FitRelu::from_bounds(&[1.0; 4], 8.0)),
            Box::new(BoundedRelu::per_neuron(&[1.0; 4])),
            Box::new(BoundedRelu::ranger(1.0)),
        ];
        for activation in fits {
            slot_of(activation).instantiate().unwrap();
        }
    }

    #[test]
    fn overflowing_parameter_shape_is_corrupt() {
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        // dims whose product overflows usize: the decoder must reject the
        // artifact with a typed error, not panic or wrap.
        artifact.params[0].dims = vec![1 << 62, 1 << 62];
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn v2_layout_is_aligned_and_exactly_sized() {
        let artifact = ModelArtifact::capture(&mlp()).unwrap();
        let bytes = artifact.to_bytes();
        let total_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let head_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), total_len, "file ends exactly at total_len");
        assert_eq!(
            u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize,
            BLOB_ALIGN
        );
        let head = decode_v2(&bytes).unwrap();
        assert_eq!(head.params.len(), artifact.params.len());
        for (decoded, original) in head.params.iter().zip(&artifact.params) {
            assert_eq!(decoded.byte_offset % BLOB_ALIGN, 0, "blob alignment");
            assert!(decoded.byte_offset >= V2_HEADER_LEN + head_len);
            assert_eq!(decoded.numel, original.data.len());
        }
    }

    #[test]
    fn v1_encoding_round_trips_through_the_dispatching_reader() {
        let mut artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.set_meta("stage", "trained");
        let v1 = include_bytes!("../tests/fixtures/mlp_v1.fitact");
        assert_eq!(&v1[8..12], &1u32.to_le_bytes(), "v1 stamps version 1");
        assert_eq!(ModelArtifact::from_bytes(v1).unwrap(), artifact);
    }

    #[test]
    fn v2_rejects_misaligned_and_escaping_blob_offsets() {
        let artifact = ModelArtifact::capture(&mlp()).unwrap();
        let bytes = artifact.to_bytes();
        let head_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        // The first param record sits after name/meta/topology; find its
        // blob_offset field by re-encoding the head with a sentinel to
        // locate the offset bytes, then corrupt them in place.
        let offset_pos = {
            let head = &bytes[V2_HEADER_LEN..V2_HEADER_LEN + head_len];
            let first_offset = decode_v2(&bytes).unwrap().params[0].byte_offset as u64;
            let needle = first_offset.to_le_bytes();
            V2_HEADER_LEN
                + head
                    .windows(8)
                    .position(|w| w == needle)
                    .expect("offset bytes present in the head")
        };
        // Misaligned: offset + 1.
        let mut misaligned = bytes.clone();
        let first = u64::from_le_bytes(misaligned[offset_pos..offset_pos + 8].try_into().unwrap());
        misaligned[offset_pos..offset_pos + 8].copy_from_slice(&(first + 1).to_le_bytes());
        match ModelArtifact::from_bytes(&misaligned) {
            Err(IoError::Corrupt(msg)) => assert!(msg.contains("aligned"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Escaping: an aligned offset pointing past the end of the file.
        let mut escaping = bytes.clone();
        let far = align_up(bytes.len() + 1, BLOB_ALIGN) as u64;
        escaping[offset_pos..offset_pos + 8].copy_from_slice(&far.to_le_bytes());
        match ModelArtifact::from_bytes(&escaping) {
            Err(IoError::Corrupt(msg)) => assert!(msg.contains("escapes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_load_file_round_trip() {
        let dir = std::env::temp_dir().join("fitact_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.fitact");
        let artifact = ModelArtifact::capture(&mlp()).unwrap();
        artifact.save(&path).unwrap();
        assert_eq!(ModelArtifact::load(&path).unwrap(), artifact);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(ModelArtifact::load(&path), Err(IoError::Io(_))));
    }
}
