//! The line-framed JSON wire protocol.
//!
//! One request or response per line, each a single canonical JSON object
//! with a `"type"` tag (see `docs/PROTOCOL.md` for the full specification
//! — its example payloads are asserted byte-for-byte by this crate's
//! `protocol_docs` test). Version [`PROTOCOL_VERSION`] is reported by the
//! `pong` response.
//!
//! ```
//! use hdoms_serve::protocol::{Request, Response};
//!
//! let req = Request::decode(r#"{"type":"ping"}"#).unwrap();
//! assert_eq!(req.encode(), r#"{"type":"ping"}"#);
//! let resp = Response::Pong { protocol: 5 };
//! assert_eq!(resp.encode(), r#"{"type":"pong","protocol":5}"#);
//! ```
//!
//! # One field table per message
//!
//! Each message body is declared once, as a field table: the struct or
//! enum definition itself, wrapped in the crate's `wire_struct!` /
//! `wire_enum!` macros. The table generates both directions. Fields are
//! encoded in declaration order, which is wire order, and each is decoded
//! by the same line, so encoder and decoder cannot drift. A field line
//! ends in one of three policies:
//!
//! * **required** (no suffix): always encoded; an object without it fails
//!   to decode with `missing field "<name>"`;
//! * **`[default = expr]`**: always encoded; `expr` when absent on decode
//!   (`window`, `fdr`);
//! * **`[omit_default]`**: left off the wire at the type's default, which
//!   decoding restores when the field is absent (`tier`, the error
//!   `code`, `prefilter: None`).
//!
//! Three more suffixes mark required fields with a wire quirk:
//! `[null = expr]` decodes `null` as `expr` (`threshold_score`'s
//! `null ⇄ +∞`), `[key = "..."]` puts the field under another wire key,
//! and `[label = "..."]` names it differently in type errors. `Request`
//! and `Response` map each `type` tag to one variant; a tuple variant's
//! body is flattened into the message object (or nested under its
//! `[key = "..."]`). The foreign types ([`PsmTableRow`], [`ShardTiming`])
//! and the metrics name → value maps keep short hand-written impls of the
//! same crate-private `Wire` trait. Adding a wire field therefore means
//! adding one documented table line, plus its example in
//! `docs/PROTOCOL.md`.

use crate::json::Json;
use crate::scheduler::{Tier, TierStats};
use hdoms_engine::ShardTiming;
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use hdoms_oms::psm::{Psm, PsmTableRow};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::PrefilterConfig;

/// Wire protocol version, reported by `pong`. Bumped on any incompatible
/// message change (v5: tiered serving — the `tier` option on `query` and
/// `session.open`, the `prefilter` option on `session.open`, and per-tier
/// scheduler slices, coalescing counters, and shard-residency accounting
/// in `server.stats`; v4: prefilter — the per-request `prefilter` option
/// on `query`, and sketch-cascade accounting
/// (`candidates_pre`/`candidates_post`/`sketch_ms`) in `stats`,
/// `receipt`, and `server.stats`; v3: observability — per-stage pipeline
/// timings in `stats`, stage and per-shard timings in `receipt`, and the
/// `server.metrics` verb; v2: scheduler — structured `busy`/`deadline`
/// error codes, queue-wait/budget fields in `stats` and `receipt`, and
/// the `server.stats` verb).
pub const PROTOCOL_VERSION: u32 = 5;

/// Default FDR level applied when a query request omits `"fdr"`.
pub const DEFAULT_FDR: f64 = 0.01;

/// One value's wire form: encoded as one JSON value, decoded back with
/// `what` naming the value in error messages. Error strings are built on
/// the error path only.
pub(crate) trait Wire: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;

    /// The value `v` holds.
    fn decode(v: &Json, what: &str) -> Result<Self, String>;
}

/// Required object field `key`.
pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Required object field `key`, decoded.
pub(crate) fn required<T: Wire>(v: &Json, key: &str) -> Result<T, String> {
    T::decode(field(v, key)?, key)
}

/// Optional object field `key`, decoded, or `default()` when absent.
pub(crate) fn optional<T: Wire>(
    v: &Json,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, String> {
    v.get(key)
        .map_or_else(|| Ok(default()), |x| T::decode(x, key))
}

/// Encode or decode one table field under its policy (see the module
/// docs): `encode <fields>, <name>, <&value>, [policy]` pushes the
/// field's `(key, value)` pair, `decode <object>, <name>, [policy]`
/// evaluates to the decoded value (propagating errors with `?`).
macro_rules! field_codec {
    (encode $out:ident, $name:ident, $value:expr, [omit_default]) => {
        if *$value != Default::default() {
            $out.push((
                stringify!($name).to_owned(),
                $crate::protocol::Wire::encode($value),
            ));
        }
    };
    (encode $out:ident, $name:ident, $value:expr, [key = $key:literal]) => {
        $out.push(($key.to_owned(), $crate::protocol::Wire::encode($value)))
    };
    (encode $out:ident, $name:ident, $value:expr, [$($policy:tt)*]) => {
        $out.push((
            stringify!($name).to_owned(),
            $crate::protocol::Wire::encode($value),
        ))
    };
    (decode $v:ident, $name:ident, []) => {
        $crate::protocol::required($v, stringify!($name))?
    };
    (decode $v:ident, $name:ident, [key = $key:literal]) => {
        $crate::protocol::required($v, $key)?
    };
    (decode $v:ident, $name:ident, [label = $label:literal]) => {
        $crate::protocol::Wire::decode($crate::protocol::field($v, stringify!($name))?, $label)?
    };
    (decode $v:ident, $name:ident, [null = $null:expr]) => {
        match $crate::protocol::field($v, stringify!($name))? {
            $crate::json::Json::Null => $null,
            x => $crate::protocol::Wire::decode(x, stringify!($name))?,
        }
    };
    (decode $v:ident, $name:ident, [default = $default:expr]) => {
        $crate::protocol::optional($v, stringify!($name), || $default)?
    };
    (decode $v:ident, $name:ident, [omit_default]) => {
        $crate::protocol::optional($v, stringify!($name), Default::default)?
    };
}
pub(crate) use field_codec;

/// Define a wire struct from its field table: the struct exactly as
/// written (every field documented, optionally followed by a `[policy]`)
/// and its `Wire` impl, one JSON object with the fields in declaration
/// order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: $ty:ty $([$($policy:tt)*])?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $crate::protocol::Wire for $name {
            fn encode(&self) -> $crate::json::Json {
                let mut fields = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::protocol::field_codec!(
                    encode fields, $field, &self.$field, [$($($policy)*)?]
                );)*
                $crate::json::Json::Obj(fields)
            }

            fn decode(v: &$crate::json::Json, _what: &str) -> Result<$name, String> {
                Ok($name {
                    $($field: $crate::protocol::field_codec!(decode v, $field, [$($($policy)*)?]),)*
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// A tuple variant's body: flattened into the message object, or nested
/// under its `key`.
macro_rules! variant_codec {
    (encode $out:ident, $value:ident, $ty:ty, $key:literal) => {
        $out.push(($key.to_owned(), Wire::encode($value)))
    };
    (encode $out:ident, $value:ident, $ty:ty) => {
        if let Json::Obj(pairs) = Wire::encode($value) {
            $out.extend(pairs);
        }
    };
    (decode $v:ident, $ty:ty, $key:literal) => {
        required::<$ty>($v, $key)?
    };
    (decode $v:ident, $ty:ty) => {
        <$ty as Wire>::decode($v, "")?
    };
}

/// Define a message enum from its `"type"` tag ↔ variant table: the enum
/// exactly as written, plus `encode` (one canonical JSON line, the tag
/// first) and `decode`. Unit variants carry only the tag; struct variants
/// are field tables; tuple variants wrap a wire type, flattened unless
/// given a `[key = "..."]`.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $tag:literal => $variant:ident
                    $(($inner:ty $([key = $key:literal])?))?
                    $({
                        $(
                            $(#[$field_meta:meta])*
                            $field:ident: $ty:ty $([$($policy:tt)*])?,
                        )*
                    })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant $(($inner))? $({$($(#[$field_meta])* $field: $ty,)*})?,
            )*
        }

        impl $name {
            /// Encode as one canonical JSON line (no trailing newline).
            pub fn encode(&self) -> String {
                let tag = match self {
                    $($name::$variant { .. } => $tag,)*
                };
                let mut fields = vec![("type".to_owned(), Json::str(tag))];
                $(
                    $(if let $name::$variant(value) = self {
                        variant_codec!(encode fields, value, $inner $(, $key)?);
                    })?
                    $(if let $name::$variant { $($field),* } = self {
                        $(field_codec!(encode fields, $field, $field, [$($($policy)*)?]);)*
                    })?
                )*
                Json::Obj(fields).encode()
            }

            /// Decode one line.
            ///
            /// # Errors
            ///
            /// Returns a human-readable description of the first
            /// structural problem (malformed JSON, unknown type,
            /// missing/mistyped field), checking fields in wire order.
            pub fn decode(line: &str) -> Result<$name, String> {
                let doc = Json::parse(line).map_err(|e| e.to_string())?;
                let v = &doc;
                match field(v, "type")?.as_str() {
                    $(Some($tag) => Ok($name::$variant
                        $((variant_codec!(decode v, $inner $(, $key)?)))?
                        $({$($field: field_codec!(decode v, $field, [$($($policy)*)?]),)*})?
                    ),)*
                    Some(other) => Err(format!(
                        "unknown {} type {other:?}",
                        stringify!($name).to_lowercase()
                    )),
                    None => Err(format!(
                        "{} type must be a string",
                        stringify!($name).to_lowercase()
                    )),
                }
            }
        }
    };
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        /// Range-checked against the type's MAX: values beyond it are
        /// rejected, never wrapped (a charge of 257 must error, not
        /// silently search as charge 1).
        impl Wire for $t {
            fn encode(&self) -> Json {
                Json::Num(*self as f64)
            }

            fn decode(v: &Json, what: &str) -> Result<$t, String> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("{what} must be a non-negative integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| format!("{what} {n} out of range (max {})", <$t>::MAX))
            }
        }
    )*};
}
wire_uint!(u8, u32, u64, usize);

/// Signed integers (gauges may go negative); non-integral numbers are
/// rejected.
impl Wire for i64 {
    fn encode(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn decode(v: &Json, what: &str) -> Result<i64, String> {
        let x = f64::decode(v, what)?;
        if x.fract() != 0.0 || x < i64::MIN as f64 || x > i64::MAX as f64 {
            return Err(format!("{what} must be an integer"));
        }
        Ok(x as i64)
    }
}

impl Wire for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(v: &Json, what: &str) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("{what} must be a number"))
    }
}

impl Wire for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(v: &Json, what: &str) -> Result<bool, String> {
        v.as_bool()
            .ok_or_else(|| format!("{what} must be a boolean"))
    }
}

/// The string content of `v`.
fn text<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{what} must be a string"))
}

impl Wire for String {
    fn encode(&self) -> Json {
        Json::str(self.clone())
    }

    fn decode(v: &Json, what: &str) -> Result<String, String> {
        text(v, what).map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json, what: &str) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| format!("{what} must be an array"))?
            .iter()
            .map(|item| T::decode(item, what))
            .collect()
    }
}

/// `None` is only ever left off the wire (`[omit_default]`).
impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(v: &Json, what: &str) -> Result<Option<T>, String> {
        T::decode(v, what).map(Some)
    }
}

/// The string-named enums: `$name` renders the wire name, `$parse` reads
/// it back (and describes unknown names).
macro_rules! wire_named {
    ($($t:ty: $name:expr, $parse:expr;)*) => {$(
        impl Wire for $t {
            fn encode(&self) -> Json {
                Json::str($name(*self))
            }

            fn decode(v: &Json, what: &str) -> Result<$t, String> {
                $parse(text(v, what)?)
            }
        }
    )*};
}
wire_named! {
    WindowKind: WindowKind::name, WindowKind::parse;
    Tier: Tier::name, Tier::parse;
    PrefilterConfig: PrefilterConfig::render, PrefilterConfig::parse;
    // `General` is omitted at its default, so it never reaches the wire.
    ErrorCode: |code: ErrorCode| code.name().unwrap_or_default(), ErrorCode::parse;
}

/// A fragment peak as its `[mz, intensity]` pair.
impl Wire for (f64, f64) {
    fn encode(&self) -> Json {
        Json::Arr(vec![Json::Num(self.0), Json::Num(self.1)])
    }

    fn decode(v: &Json, _what: &str) -> Result<(f64, f64), String> {
        match v.as_arr() {
            Some([mz, intensity]) => Ok((
                f64::decode(mz, "peak mz")?,
                f64::decode(intensity, "peak intensity")?,
            )),
            _ => Err("each peak must be a [mz, intensity] pair".to_owned()),
        }
    }
}

/// A PSM table row, its [`Psm`] flattened into the row object.
impl Wire for PsmTableRow {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("query_id".into(), self.psm.query_id.encode()),
            ("reference_id".into(), self.psm.reference_id.encode()),
            ("peptide".into(), self.peptide.encode()),
            ("score".into(), self.psm.score.encode()),
            ("is_decoy".into(), self.psm.is_decoy.encode()),
            ("precursor_delta".into(), self.psm.precursor_delta.encode()),
            ("accepted".into(), self.accepted.encode()),
        ])
    }

    fn decode(v: &Json, _what: &str) -> Result<PsmTableRow, String> {
        Ok(PsmTableRow {
            psm: Psm {
                query_id: required(v, "query_id")?,
                reference_id: required(v, "reference_id")?,
                score: required(v, "score")?,
                is_decoy: required(v, "is_decoy")?,
                precursor_delta: required(v, "precursor_delta")?,
            },
            peptide: required(v, "peptide")?,
            accepted: required(v, "accepted")?,
        })
    }
}

impl Wire for ShardTiming {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("shard".into(), self.shard.encode()),
            ("visits".into(), self.visits.encode()),
            ("ms".into(), self.ms.encode()),
        ])
    }

    fn decode(v: &Json, _what: &str) -> Result<ShardTiming, String> {
        Ok(ShardTiming {
            shard: required(v, "shard")?,
            visits: required(v, "visits")?,
            ms: required(v, "ms")?,
        })
    }
}

/// The metrics report: three name → value maps, each one JSON object
/// whose entries keep registry order ([`Json::Obj`] preserves insertion
/// order).
impl Wire for MetricsReport {
    fn encode(&self) -> Json {
        fn map<T: Wire>(entries: &[(String, T)]) -> Json {
            Json::Obj(
                entries
                    .iter()
                    .map(|(name, value)| (name.clone(), value.encode()))
                    .collect(),
            )
        }
        Json::Obj(vec![
            ("counters".into(), map(&self.counters)),
            ("gauges".into(), map(&self.gauges)),
            ("histograms".into(), map(&self.histograms)),
        ])
    }

    fn decode(v: &Json, _what: &str) -> Result<MetricsReport, String> {
        fn map<T: Wire>(v: &Json, key: &str, what: &str) -> Result<Vec<(String, T)>, String> {
            let Json::Obj(entries) = field(v, key)? else {
                return Err(format!("{key} must be an object"));
            };
            entries
                .iter()
                .map(|(name, value)| Ok((name.clone(), T::decode(value, what)?)))
                .collect()
        }
        Ok(MetricsReport {
            counters: map(v, "counters", "counter value")?,
            gauges: map(v, "gauges", "gauge value")?,
            histograms: map(v, "histograms", "histogram")?,
        })
    }
}

/// Machine-readable classification of an `error` response, so clients
/// can react without parsing prose. `General` (the catch-all for
/// request-level failures) is omitted on the wire; the scheduler's two
/// structured rejections carry `"code":"busy"` / `"code":"deadline"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorCode {
    /// Any request-level failure without a more specific code.
    #[default]
    General,
    /// Admission control: the batch queue is full; retry later (the
    /// request was rejected before any work happened).
    Busy,
    /// The batch waited in the queue past the server's soft deadline
    /// and was shed before execution.
    Deadline,
}

impl ErrorCode {
    /// The wire name, or `None` for the omitted `General` default.
    pub fn name(self) -> Option<&'static str> {
        match self {
            ErrorCode::General => None,
            ErrorCode::Busy => Some("busy"),
            ErrorCode::Deadline => Some("deadline"),
        }
    }

    /// Parse a wire name back into a code.
    ///
    /// # Errors
    ///
    /// Describes the unknown name.
    pub fn parse(name: &str) -> Result<ErrorCode, String> {
        match name {
            "busy" => Ok(ErrorCode::Busy),
            "deadline" => Ok(ErrorCode::Deadline),
            other => Err(format!("unknown error code {other:?} (busy|deadline)")),
        }
    }
}

/// Which precursor window a query batch searches under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Open-modification window (the wide window that *is* OMS).
    Open,
    /// Standard (narrow) window.
    Standard,
}

impl WindowKind {
    /// The wire name (`"open"` / `"standard"`).
    pub fn name(self) -> &'static str {
        match self {
            WindowKind::Open => "open",
            WindowKind::Standard => "standard",
        }
    }

    /// The pipeline window this kind stands for.
    pub fn window(self) -> PrecursorWindow {
        match self {
            WindowKind::Open => PrecursorWindow::open_default(),
            WindowKind::Standard => PrecursorWindow::standard_default(),
        }
    }

    /// Parse a wire name back into a kind (the single source of truth
    /// for the `"open"` / `"standard"` mapping — the CLI uses it too).
    ///
    /// # Errors
    ///
    /// Describes the unknown name.
    pub fn parse(name: &str) -> Result<WindowKind, String> {
        match name {
            "open" => Ok(WindowKind::Open),
            "standard" => Ok(WindowKind::Standard),
            other => Err(format!("unknown window {other:?} (open|standard)")),
        }
    }
}

wire_struct! {
    /// One query spectrum on the wire: precursor information plus the
    /// peak list as `[mz, intensity]` pairs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QuerySpectrum {
        /// Client-chosen id, echoed back in the PSM rows.
        pub id: u32,
        /// Precursor m/z.
        pub precursor_mz: f64,
        /// Precursor charge state.
        pub precursor_charge: u8,
        /// Fragment peaks as `(mz, intensity)` pairs.
        pub peaks: Vec<(f64, f64)> [label = "spectrum peaks"],
    }
}

impl QuerySpectrum {
    /// Capture a [`Spectrum`] for the wire.
    pub fn from_spectrum(spectrum: &Spectrum) -> QuerySpectrum {
        QuerySpectrum {
            id: spectrum.id,
            precursor_mz: spectrum.precursor_mz,
            precursor_charge: spectrum.precursor_charge,
            peaks: spectrum
                .peaks()
                .iter()
                .map(|p| (p.mz, p.intensity))
                .collect(),
        }
    }

    /// Validate and convert back into a [`Spectrum`] (origin `Query`).
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive precursor m/z, a zero charge,
    /// and malformed peaks — the server must never panic on wire input.
    pub fn to_spectrum(&self) -> Result<Spectrum, String> {
        if !(self.precursor_mz.is_finite() && self.precursor_mz > 0.0) {
            return Err(format!(
                "spectrum {}: precursor_mz must be finite and positive",
                self.id
            ));
        }
        if self.precursor_charge == 0 {
            return Err(format!(
                "spectrum {}: precursor_charge must be ≥ 1",
                self.id
            ));
        }
        let mut peaks = Vec::with_capacity(self.peaks.len());
        for &(mz, intensity) in &self.peaks {
            if !(mz.is_finite() && mz > 0.0 && intensity.is_finite() && intensity >= 0.0) {
                return Err(format!(
                    "spectrum {}: malformed peak [{mz}, {intensity}]",
                    self.id
                ));
            }
            peaks.push(Peak::new(mz, intensity));
        }
        Ok(Spectrum::new(
            self.id,
            self.precursor_mz,
            self.precursor_charge,
            peaks,
            SpectrumOrigin::Query,
        ))
    }
}

wire_struct! {
    /// A `query` request: search a batch of spectra against one resident
    /// index.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryRequest {
        /// Name of the resident index to search.
        pub index: String,
        /// Precursor window (defaults to open when omitted on the wire).
        pub window: WindowKind [default = WindowKind::Open],
        /// FDR acceptance level in (0, 1) (defaults to [`DEFAULT_FDR`]).
        pub fdr: f64 [default = DEFAULT_FDR],
        /// Priority class. [`Tier::Batch`] (the default — omitted on the
        /// wire) queues behind the batch bound; [`Tier::Interactive`] uses
        /// the separately bounded interactive queue, is dequeued
        /// preferentially, and is eligible for cross-request coalescing.
        pub tier: Tier [omit_default],
        /// Per-request prefilter override (`"off"` / `"k=N"`). `None` (the
        /// field omitted on the wire) uses the server's configured default
        /// (`hdoms serve --prefilter`).
        pub prefilter: Option<PrefilterConfig> [omit_default],
        /// The query batch. FDR filtering is per batch: splitting a query
        /// set across batches changes the acceptance threshold.
        pub spectra: Vec<QuerySpectrum>,
    }
}

wire_enum! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Liveness / version probe.
        "ping" => Ping,
        /// List the resident indexes.
        "list_indexes" => ListIndexes,
        /// Search a query batch (FDR filtered per batch).
        "query" => Query(QueryRequest),
        /// Open a streaming session against one resident index.
        "session.open" => SessionOpen {
            /// Name of the resident index to search.
            index: String,
            /// Precursor window for the whole session (defaults to open).
            window: WindowKind [default = WindowKind::Open],
            /// Priority class every `session.submit` of this session is
            /// admitted under (defaults to [`Tier::Batch`], omitted on the
            /// wire at the default).
            tier: Tier [omit_default],
            /// Prefilter override for the whole session (`"off"` /
            /// `"k=N"`); `None` uses the server's configured default.
            prefilter: Option<PrefilterConfig> [omit_default],
        },
        /// Submit one batch to an open session (accumulates raw PSMs; no
        /// FDR filtering until `session.finalize`).
        "session.submit" => SessionSubmit {
            /// Session id returned by `session.open`.
            session: u64,
            /// The query batch.
            spectra: Vec<QuerySpectrum>,
        },
        /// Filter FDR once over everything the session accumulated,
        /// return the full PSM table, and close the session.
        "session.finalize" => SessionFinalize {
            /// Session id returned by `session.open`.
            session: u64,
            /// FDR acceptance level in (0, 1) (defaults to
            /// [`DEFAULT_FDR`]).
            fdr: f64 [default = DEFAULT_FDR],
        },
        /// Discard an open session without producing a result (the abort
        /// path — clients that fail mid-stream should close what they
        /// opened so the server's session slots are not leaked).
        "session.close" => SessionClose {
            /// Session id returned by `session.open`.
            session: u64,
        },
        /// Load a `.hdx` index from the server's filesystem and make it
        /// resident under `name`.
        "index.load" => IndexLoad {
            /// Name to register the index under.
            name: String,
            /// Path to the `.hdx` file on the server.
            path: String,
        },
        /// Drop a resident index. Open sessions keep their engine alive
        /// until they finalize; new requests against the name fail.
        "index.unload" => IndexUnload {
            /// Name the index was registered under.
            name: String,
        },
        /// Report the scheduler's queue/worker counters and the server's
        /// resident-set size (for monitoring and load shedding
        /// decisions).
        "server.stats" => ServerStats,
        /// Report the server's metrics registry: every counter, gauge,
        /// and latency-histogram summary (the same registry `hdoms serve
        /// --metrics` exposes in Prometheus text form).
        "server.metrics" => ServerMetrics,
    }
}

wire_struct! {
    /// A one-line summary of a resident index (the `indexes` response).
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndexSummary {
        /// Name the index was registered under.
        pub name: String,
        /// Backend kind ("exact" | "hyperoms" | "rram").
        pub backend: String,
        /// Hypervector dimension.
        pub dim: usize,
        /// Number of indexed references.
        pub entries: usize,
        /// Number of precursor-mass shards.
        pub shards: usize,
    }
}

wire_struct! {
    /// Per-batch serving statistics, reported with every `result`
    /// response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchStats {
        /// Wall-clock time spent answering the batch, milliseconds.
        pub latency_ms: f64,
        /// Time the batch waited in the scheduler queue before its worker
        /// budget was granted, milliseconds (for a session finalize: the
        /// accumulated wait of every submitted batch).
        pub wait_ms: f64,
        /// Batches already waiting in the queue when this one was
        /// submitted (0 for a finalize, which does not queue).
        pub queued: usize,
        /// Worker budget the scheduler granted the batch (0 for a
        /// finalize, which runs unscheduled).
        pub workers: usize,
        /// Queries in the batch.
        pub queries: usize,
        /// Queries dropped by preprocessing (too few peaks).
        pub rejected_queries: usize,
        /// Best-hit PSMs produced.
        pub psms: usize,
        /// PSMs accepted at the requested FDR.
        pub identifications: usize,
        /// Score of the weakest accepted PSM: `+∞` when no PSM was
        /// accepted ([`hdoms_oms::fdr::filter_fdr`]), which JSON cannot
        /// express, so the wire carries `null`.
        pub threshold_score: f64 [null = f64::INFINITY],
        /// Total shard visits across the batch: the visit total of its
        /// per-shard timings (see [`hdoms_engine::ShardTiming`]).
        pub shards_touched: usize,
        /// Total candidate references scored across the batch.
        pub candidates_scored: usize,
        /// Precursor-window candidates generated across the batch, before
        /// any prefilter narrowing (equals `candidates_scored` when the
        /// prefilter is off).
        pub candidates_pre: usize,
        /// Candidates forwarded to the exact scan after prefilter
        /// narrowing (always equals `candidates_scored`).
        pub candidates_post: usize,
        /// Time spent scoring sketches and narrowing candidate lists,
        /// milliseconds (0 when the prefilter is off).
        pub sketch_ms: f64,
        /// Time spent preprocessing query spectra (the `encode` stage;
        /// hypervector encoding is part of `score_ms`), milliseconds (for
        /// a session finalize: accumulated across every submitted batch;
        /// likewise for the other stage timings).
        pub encode_ms: f64,
        /// Time spent building precursor-window candidate lists,
        /// milliseconds.
        pub candidates_ms: f64,
        /// Time spent encoding query hypervectors and scoring candidates
        /// against the index shards, milliseconds.
        pub score_ms: f64,
        /// Time spent in FDR finalization, milliseconds.
        pub finalize_ms: f64,
        /// Name of the backend that served the batch.
        pub backend: String,
    }
}

wire_struct! {
    /// The result of one `query` request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryResult {
        /// Which index answered.
        pub index: String,
        /// One row per best-hit PSM, in pipeline order — rendering these
        /// with [`hdoms_oms::psm::render_table_rows`] reproduces the local
        /// `search --index` table byte-for-byte.
        pub rows: Vec<PsmTableRow> [key = "psms"],
        /// Batch statistics.
        pub stats: BatchStats,
    }
}

wire_struct! {
    /// Per-submit accounting, reported by the `receipt` response: what
    /// the batch itself cost plus the session's running PSM total.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SubmitReceipt {
        /// Session the batch was submitted to.
        pub session: u64,
        /// 1-based ordinal of the batch within the session.
        pub batch: usize,
        /// Queries in the batch.
        pub queries: usize,
        /// Queries dropped by preprocessing (too few peaks).
        pub rejected_queries: usize,
        /// Best-hit PSMs the batch produced (unfiltered — FDR runs at
        /// finalize).
        pub psms: usize,
        /// Raw PSMs accumulated across the session so far.
        pub total_psms: usize,
        /// Candidate references scored in the batch.
        pub candidates_scored: usize,
        /// Precursor-window candidates the batch generated, before any
        /// prefilter narrowing.
        pub candidates_pre: usize,
        /// Candidates forwarded to the exact scan after prefilter
        /// narrowing (always equals `candidates_scored`).
        pub candidates_post: usize,
        /// Time the batch spent in the sketch prefilter, milliseconds.
        pub sketch_ms: f64,
        /// Shard visits the batch cost.
        pub shards_touched: usize,
        /// Worker budget the scheduler granted the batch.
        pub workers: usize,
        /// Wall-clock time spent searching the batch, milliseconds.
        pub latency_ms: f64,
        /// Time the batch waited in the scheduler queue, milliseconds.
        pub wait_ms: f64,
        /// Time spent preprocessing query spectra (the `encode` stage;
        /// hypervector encoding is part of `score_ms`), milliseconds.
        pub encode_ms: f64,
        /// Time spent building precursor-window candidate lists,
        /// milliseconds.
        pub candidates_ms: f64,
        /// Time spent encoding query hypervectors and scoring candidates
        /// against the index shards, milliseconds (there is no finalize
        /// stage at submit time — FDR runs once, at `session.finalize`).
        pub score_ms: f64,
        /// Per-shard scoring cost of the batch: which shards were
        /// visited, how often, and the wall-clock scoring time each
        /// absorbed.
        pub shard_timings: Vec<ShardTiming>,
    }
}

wire_struct! {
    /// The scheduler and resident-set counters reported by the
    /// `server.stats` verb: configuration, the queue right now, and
    /// lifetime totals since the server started.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ServerStats {
        /// Configured worker-token budget (`hdoms serve --workers`).
        pub workers: usize,
        /// Configured queue bound (`--queue-depth`).
        pub queue_depth: usize,
        /// Configured soft queue deadline in milliseconds
        /// (`--deadline-ms`, 0 = none).
        pub deadline_ms: u64,
        /// Configured interactive grants per batch grant under contention
        /// (`--interactive-weight`).
        pub interactive_weight: usize,
        /// Configured interactive queue bound
        /// (`--interactive-queue-depth`).
        pub interactive_queue_depth: usize,
        /// Configured interactive coalescing window in milliseconds
        /// (`--coalesce-window-ms`, 0 = coalescing off).
        pub coalesce_window_ms: u64,
        /// Configured resident-shard memory budget in bytes
        /// (`--memory-budget`, 0 = unlimited).
        pub memory_budget: u64,
        /// Batches waiting in the queue right now.
        pub queued: usize,
        /// Batches executing right now.
        pub in_flight: usize,
        /// Worker tokens granted right now (≤ `workers`).
        pub workers_busy: usize,
        /// Most tokens ever granted at once (≤ `workers` always — the
        /// bounded-in-flight invariant).
        pub peak_workers_busy: usize,
        /// Batches granted a budget so far.
        pub admitted: u64,
        /// Admitted batches that finished and returned their budget.
        pub completed: u64,
        /// Submissions rejected with the `busy` error.
        pub rejected_busy: u64,
        /// Batches shed with the `deadline` error.
        pub shed_deadline: u64,
        /// Total queue wait across admitted **and** deadline-shed
        /// batches, milliseconds (shed batches waited too; excluding them
        /// would understate tail wait exactly when admission pressure
        /// builds).
        pub total_wait_ms: f64,
        /// The interactive tier's slice of the scheduler counters (same
        /// lock acquisition as the aggregates, so sums are never torn).
        pub interactive: TierStats,
        /// The batch tier's slice of the scheduler counters.
        pub batch: TierStats,
        /// Engine batches executed by the coalescer so far (one per
        /// merged admission; a lone request inside the window still
        /// counts as a single-member batch, so shed work never inflates
        /// the ratio).
        pub coalesced_batches: u64,
        /// Interactive requests answered out of coalesced batches so far
        /// (`coalesced_requests / coalesced_batches` is the merge ratio).
        pub coalesced_requests: u64,
        /// Lifetime precursor-window candidates that entered the sketch
        /// prefilter (0 until a prefiltered batch runs — the
        /// `hdoms_prefilter_candidates_pre_total` counter).
        pub prefilter_candidates_pre: u64,
        /// Lifetime candidates the prefilter forwarded to the exact scan
        /// (the `hdoms_prefilter_candidates_post_total` counter).
        pub prefilter_candidates_post: u64,
        /// Lifetime wall-clock spent in the sketch prefilter,
        /// milliseconds (the `hdoms_prefilter_sketch_ms` histogram's
        /// sum).
        pub prefilter_sketch_ms: f64,
        /// Bytes of shard hypervector words resident right now, across
        /// every mapped index (what `--memory-budget` bounds).
        pub resident_bytes: u64,
        /// Mapped shards resident right now.
        pub resident_shards: usize,
        /// Cold shards evicted (pages released to the OS) so far (the
        /// `hdoms_shard_evictions_total` counter).
        pub evictions: u64,
        /// Evicted shards reloaded on demand by a later search so far
        /// (the `hdoms_shard_reloads_total` counter).
        pub reloads: u64,
        /// Open streaming sessions.
        pub open_sessions: usize,
        /// Resident indexes.
        pub resident_indexes: usize,
    }
}

wire_struct! {
    /// A five-number summary of one latency histogram, reported by the
    /// `server.metrics` verb. Quantiles are bucket upper bounds from the
    /// registry's log₂ histogram — conservative (never understated), with
    /// resolution of one bucket.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct HistogramSummary {
        /// Samples recorded.
        pub count: u64,
        /// Sum of all recorded samples, milliseconds.
        pub sum_ms: f64,
        /// Median latency, milliseconds.
        pub p50_ms: f64,
        /// 90th-percentile latency, milliseconds.
        pub p90_ms: f64,
        /// 99th-percentile latency, milliseconds.
        pub p99_ms: f64,
    }
}

/// A point-in-time dump of the server's metrics registry (the
/// `server.metrics` verb). Series are sorted by name; the same names
/// appear in the Prometheus text exposition (`hdoms serve --metrics`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Monotone counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, by name.
    pub gauges: Vec<(String, i64)>,
    /// Latency histograms, by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

wire_enum! {
    /// A server response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Answer to `ping`.
        "pong" => Pong {
            /// The server's [`PROTOCOL_VERSION`].
            protocol: u32,
        },
        /// Any request-level failure (the connection stays open).
        "error" => Error {
            /// Machine-readable classification ([`ErrorCode::General`] is
            /// omitted on the wire).
            code: ErrorCode [omit_default],
            /// What went wrong.
            message: String,
        },
        /// Answer to `list_indexes`.
        "indexes" => Indexes(Vec<IndexSummary> [key = "indexes"]),
        /// Answer to `query` and `session.finalize`.
        "result" => Result(QueryResult),
        /// Answer to `session.open`.
        "session" => SessionOpened {
            /// The new session's id (quote it in `session.submit` /
            /// `session.finalize`).
            session: u64,
            /// The resident index the session searches.
            index: String,
        },
        /// Answer to `session.submit`.
        "receipt" => Receipt(SubmitReceipt),
        /// Answer to `session.close`.
        "closed" => SessionClosed {
            /// The discarded session's id.
            session: u64,
        },
        /// Answer to `index.load`.
        "loaded" => Loaded(IndexSummary [key = "index"]),
        /// Answer to `index.unload`.
        "unloaded" => Unloaded {
            /// Name the dropped index was registered under.
            name: String,
        },
        /// Answer to `server.stats`.
        "stats" => Stats(ServerStats),
        /// Answer to `server.metrics`.
        "metrics" => Metrics(MetricsReport),
    }
}

impl Response {
    /// A [`Response::Error`] with the default [`ErrorCode::General`]
    /// classification (the pre-scheduler error shape).
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::General,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Request {
        Request::Query(QueryRequest {
            index: "iprg".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Tier::Batch,
            prefilter: None,
            spectra: vec![QuerySpectrum {
                id: 0,
                precursor_mz: 421.76,
                precursor_charge: 2,
                peaks: vec![(100.1, 0.5), (200.25, 1.0)],
            }],
        })
    }

    #[test]
    fn requests_roundtrip() {
        let session_requests = [
            Request::SessionOpen {
                index: "iprg".to_owned(),
                window: WindowKind::Open,
                tier: Tier::Batch,
                prefilter: None,
            },
            Request::SessionOpen {
                index: "iprg".to_owned(),
                window: WindowKind::Standard,
                tier: Tier::Interactive,
                prefilter: Some(PrefilterConfig::TopK(64)),
            },
            Request::SessionSubmit {
                session: 7,
                spectra: vec![QuerySpectrum {
                    id: 3,
                    precursor_mz: 500.5,
                    precursor_charge: 2,
                    peaks: vec![(100.1, 0.25)],
                }],
            },
            Request::SessionFinalize {
                session: 7,
                fdr: 0.05,
            },
            Request::SessionClose { session: 7 },
            Request::IndexLoad {
                name: "hek".to_owned(),
                path: "/data/hek.hdx".to_owned(),
            },
            Request::IndexUnload {
                name: "hek".to_owned(),
            },
            Request::ServerStats,
            Request::ServerMetrics,
        ];
        for req in session_requests {
            let line = req.encode();
            assert_eq!(Request::decode(&line).unwrap(), req, "line {line}");
            assert_eq!(Request::decode(&line).unwrap().encode(), line);
        }
        for req in [Request::Ping, Request::ListIndexes, sample_query()] {
            let line = req.encode();
            assert!(!line.contains('\n'), "one line per message");
            assert_eq!(Request::decode(&line).unwrap(), req, "line {line}");
            // Canonical: decode → encode is the identity on the text too.
            assert_eq!(Request::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Pong { protocol: 2 },
            Response::error("unknown index \"x\""),
            Response::Error {
                code: ErrorCode::Busy,
                message: "server busy: 256 batches queued".to_owned(),
            },
            Response::Error {
                code: ErrorCode::Deadline,
                message: "queue deadline exceeded".to_owned(),
            },
            Response::Stats(ServerStats {
                workers: 8,
                queue_depth: 256,
                deadline_ms: 250,
                interactive_weight: 4,
                interactive_queue_depth: 256,
                coalesce_window_ms: 2,
                memory_budget: 1073741824,
                queued: 3,
                in_flight: 8,
                workers_busy: 8,
                peak_workers_busy: 8,
                admitted: 1200,
                completed: 1192,
                rejected_busy: 17,
                shed_deadline: 4,
                total_wait_ms: 5321.25,
                interactive: TierStats {
                    queued: 1,
                    in_flight: 3,
                    admitted: 400,
                    completed: 397,
                    rejected_busy: 2,
                    shed_deadline: 1,
                    total_wait_ms: 321.25,
                },
                batch: TierStats {
                    queued: 2,
                    in_flight: 5,
                    admitted: 800,
                    completed: 795,
                    rejected_busy: 15,
                    shed_deadline: 3,
                    total_wait_ms: 5000.0,
                },
                coalesced_batches: 120,
                coalesced_requests: 311,
                prefilter_candidates_pre: 40000,
                prefilter_candidates_post: 12000,
                prefilter_sketch_ms: 18.5,
                resident_bytes: 805306368,
                resident_shards: 96,
                evictions: 14,
                reloads: 9,
                open_sessions: 2,
                resident_indexes: 1,
            }),
            Response::Indexes(vec![IndexSummary {
                name: "iprg".to_owned(),
                backend: "exact".to_owned(),
                dim: 8192,
                entries: 10000,
                shards: 10,
            }]),
            Response::Result(QueryResult {
                index: "iprg".to_owned(),
                rows: vec![PsmTableRow {
                    psm: Psm {
                        query_id: 0,
                        reference_id: 412,
                        score: 0.8123,
                        is_decoy: false,
                        precursor_delta: 15.9949,
                    },
                    peptide: "PEPTIDEK".to_owned(),
                    accepted: true,
                }],
                stats: BatchStats {
                    latency_ms: 12.5,
                    wait_ms: 0.25,
                    queued: 2,
                    workers: 4,
                    queries: 1,
                    rejected_queries: 0,
                    psms: 1,
                    identifications: 1,
                    threshold_score: 0.75,
                    shards_touched: 3,
                    candidates_scored: 154,
                    candidates_pre: 154,
                    candidates_post: 154,
                    sketch_ms: 0.0,
                    encode_ms: 1.5,
                    candidates_ms: 0.25,
                    score_ms: 9.75,
                    finalize_ms: 0.5,
                    backend: "sharded(exact-hd, 10 shards)".to_owned(),
                },
            }),
            Response::Metrics(MetricsReport {
                counters: vec![
                    ("hdoms_queries_total".to_owned(), 512),
                    ("hdoms_query_batches_total".to_owned(), 8),
                ],
                gauges: vec![("hdoms_open_sessions".to_owned(), 2)],
                histograms: vec![(
                    "hdoms_batch_latency_ms".to_owned(),
                    HistogramSummary {
                        count: 8,
                        sum_ms: 96.5,
                        p50_ms: 8.0,
                        p90_ms: 16.0,
                        p99_ms: 32.0,
                    },
                )],
            }),
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "line {line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn session_responses_roundtrip() {
        let responses = [
            Response::SessionOpened {
                session: 1,
                index: "iprg".to_owned(),
            },
            Response::Receipt(SubmitReceipt {
                session: 1,
                batch: 2,
                queries: 64,
                rejected_queries: 1,
                psms: 60,
                total_psms: 121,
                candidates_scored: 9000,
                candidates_pre: 9000,
                candidates_post: 9000,
                sketch_ms: 0.0,
                shards_touched: 180,
                workers: 2,
                latency_ms: 4.25,
                wait_ms: 1.5,
                encode_ms: 0.75,
                candidates_ms: 0.125,
                score_ms: 3.25,
                shard_timings: vec![
                    ShardTiming {
                        shard: 4,
                        visits: 120,
                        ms: 2.5,
                    },
                    ShardTiming {
                        shard: 5,
                        visits: 60,
                        ms: 0.75,
                    },
                ],
            }),
            Response::SessionClosed { session: 1 },
            Response::Loaded(IndexSummary {
                name: "hek".to_owned(),
                backend: "exact".to_owned(),
                dim: 8192,
                entries: 5000,
                shards: 5,
            }),
            Response::Unloaded {
                name: "hek".to_owned(),
            },
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "line {line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn session_defaults_apply() {
        let Request::SessionOpen {
            window,
            tier,
            prefilter,
            ..
        } = Request::decode(r#"{"type":"session.open","index":"a"}"#).unwrap()
        else {
            panic!("expected session.open");
        };
        assert_eq!(window, WindowKind::Open);
        assert_eq!(tier, Tier::Batch);
        assert_eq!(prefilter, None);
        let Request::SessionFinalize { fdr, .. } =
            Request::decode(r#"{"type":"session.finalize","session":3}"#).unwrap()
        else {
            panic!("expected session.finalize");
        };
        assert_eq!(fdr, DEFAULT_FDR);
    }

    #[test]
    fn query_defaults_apply() {
        let line = r#"{"type":"query","index":"a","spectra":[]}"#;
        let Request::Query(q) = Request::decode(line).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.window, WindowKind::Open);
        assert_eq!(q.fdr, DEFAULT_FDR);
        assert_eq!(q.tier, Tier::Batch);
    }

    #[test]
    fn tiers_ride_the_wire_and_default_tier_is_omitted() {
        // Batch (the default) never appears on the wire, so pre-v5
        // clients and servers agree on every batch-tier line.
        let Request::Query(batch) = sample_query() else {
            panic!("expected query");
        };
        assert!(!Request::Query(batch.clone()).encode().contains("tier"));
        let interactive = Request::Query(QueryRequest {
            tier: Tier::Interactive,
            ..batch
        });
        let line = interactive.encode();
        assert!(line.contains(r#""tier":"interactive""#), "line {line}");
        assert_eq!(Request::decode(&line).unwrap(), interactive);
        assert_eq!(Request::decode(&line).unwrap().encode(), line);
        // Unknown tiers are rejected, not coerced.
        let err = Request::decode(r#"{"type":"query","index":"a","tier":"bulk","spectra":[]}"#)
            .unwrap_err();
        assert!(err.contains("unknown tier"), "error {err:?}");
    }

    #[test]
    fn infinite_threshold_survives_the_wire_as_null() {
        let resp = Response::Result(QueryResult {
            index: "a".to_owned(),
            rows: Vec::new(),
            stats: BatchStats {
                latency_ms: 0.5,
                wait_ms: 0.0,
                queued: 0,
                workers: 1,
                queries: 0,
                rejected_queries: 0,
                psms: 0,
                identifications: 0,
                threshold_score: f64::INFINITY,
                shards_touched: 0,
                candidates_scored: 0,
                candidates_pre: 0,
                candidates_post: 0,
                sketch_ms: 0.0,
                encode_ms: 0.25,
                candidates_ms: 0.0,
                score_ms: 0.0,
                finalize_ms: 0.0,
                backend: "b".to_owned(),
            },
        });
        let line = resp.encode();
        assert!(line.contains("\"threshold_score\":null"));
        let Response::Result(r) = Response::decode(&line).unwrap() else {
            panic!("expected result");
        };
        assert_eq!(r.stats.threshold_score, f64::INFINITY);
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("{", "JSON error"),
            (r#"{"type":"nope"}"#, "unknown request type"),
            (
                r#"{"type":"query","spectra":[]}"#,
                "missing field \"index\"",
            ),
            (
                r#"{"type":"query","index":"a","window":"wide","spectra":[]}"#,
                "unknown window",
            ),
            // Out-of-range integers must be rejected, never wrapped: a
            // charge of 257 silently becoming 1 would search the wrong
            // precursor window.
            (
                r#"{"type":"query","index":"a","spectra":[{"id":0,"precursor_mz":400,"precursor_charge":257,"peaks":[]}]}"#,
                "out of range",
            ),
            (
                r#"{"type":"query","index":"a","spectra":[{"id":4294967296,"precursor_mz":400,"precursor_charge":2,"peaks":[]}]}"#,
                "out of range",
            ),
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(err.contains(needle), "line {line}: error {err:?}");
        }
    }

    #[test]
    fn error_codes_default_and_reject_unknowns() {
        // A code-less error (the v1 shape) decodes as General and
        // re-encodes without a code field.
        let line = r#"{"type":"error","message":"boom"}"#;
        let Response::Error { code, .. } = Response::decode(line).unwrap() else {
            panic!("expected an error");
        };
        assert_eq!(code, ErrorCode::General);
        assert_eq!(Response::decode(line).unwrap().encode(), line);
        // Unknown codes are rejected, not silently coerced.
        assert!(Response::decode(r#"{"type":"error","code":"teapot","message":"x"}"#).is_err());
    }

    #[test]
    fn spectrum_validation_rejects_garbage() {
        let bad_mz = QuerySpectrum {
            id: 1,
            precursor_mz: -5.0,
            precursor_charge: 2,
            peaks: vec![],
        };
        assert!(bad_mz.to_spectrum().is_err());
        let bad_peak = QuerySpectrum {
            id: 2,
            precursor_mz: 500.0,
            precursor_charge: 2,
            peaks: vec![(0.0, 1.0)],
        };
        assert!(bad_peak.to_spectrum().is_err());
        let zero_charge = QuerySpectrum {
            id: 3,
            precursor_mz: 500.0,
            precursor_charge: 0,
            peaks: vec![],
        };
        assert!(zero_charge.to_spectrum().is_err());
    }
}

/// The wire contract, message by message: every field's policy
/// (required, defaulted, omitted at default), its type error, integer
/// range checks, and encode → decode → encode identity over arbitrary
/// values. Written against the public codec only, so it pins the wire
/// whatever implements it.
#[cfg(test)]
mod contract {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// What a wire field holds, which fixes the wrong-typed value the
    /// table feeds it and the error that value must draw.
    #[derive(Clone, Copy)]
    enum Kind {
        Num,
        Uint,
        /// An integer checked against a narrower type's MAX.
        UintMax(u64),
        Str,
        Bool,
        Arr,
        /// A string-named enum (window, tier, prefilter, error code).
        Named,
        /// A name → value map (the metrics series).
        Map,
        /// A nested object; a non-object reads as missing its first field.
        Obj(&'static str),
    }

    /// How a field may be left off the wire.
    enum Presence<T> {
        Required,
        /// Omitting the field decodes to the sample with this reset.
        Optional(fn(&mut T)),
        /// An array element or a metrics map entry: nothing to omit.
        Element,
    }

    struct Field<T> {
        /// Dotted path from the message root; numeric segments index arrays.
        path: &'static str,
        kind: Kind,
        presence: Presence<T>,
        /// The error label when it differs from the field's key.
        label: Option<&'static str>,
    }

    fn req<T>(path: &'static str, kind: Kind) -> Field<T> {
        Field {
            path,
            kind,
            presence: Presence::Required,
            label: None,
        }
    }

    fn opt<T>(path: &'static str, kind: Kind, reset: fn(&mut T)) -> Field<T> {
        Field {
            path,
            kind,
            presence: Presence::Optional(reset),
            label: None,
        }
    }

    fn element<T>(path: &'static str, kind: Kind, label: &'static str) -> Field<T> {
        Field {
            path,
            kind,
            presence: Presence::Element,
            label: Some(label),
        }
    }

    fn labelled<T>(path: &'static str, kind: Kind, label: &'static str) -> Field<T> {
        Field {
            label: Some(label),
            ..req(path, kind)
        }
    }

    /// The value at `path` inside `root`, mutably.
    fn at<'a>(root: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(root, |node, segment| match node {
            Json::Obj(pairs) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == segment)
                    .unwrap_or_else(|| panic!("no key {segment:?}"))
                    .1
            }
            Json::Arr(items) => &mut items[segment.parse::<usize>().expect("array index")],
            _ => panic!("path {path:?} runs through a scalar"),
        })
    }

    /// Remove the field at `path` from its parent object.
    fn drop_field(root: &mut Json, path: &str) {
        let (parent, key) = match path.rsplit_once('.') {
            Some((parent, key)) => (at(root, parent), key),
            None => (root, path),
        };
        let Json::Obj(pairs) = parent else {
            panic!("parent of {path:?} is not an object");
        };
        pairs.retain(|(k, _)| k != key);
    }

    /// Check every table line of one message kind against its codec.
    fn check<T: PartialEq + std::fmt::Debug + Clone>(
        sample: &T,
        encode: fn(&T) -> String,
        decode: fn(&str) -> Result<T, String>,
        fields: &[Field<T>],
    ) {
        let line = encode(sample);
        let root = Json::parse(&line).unwrap();
        assert_eq!(decode(&line).as_ref(), Ok(sample), "sample {line}");
        for field in fields {
            let key = field.path.rsplit('.').next().unwrap();
            let label = field.label.unwrap_or(key);
            let decode_with = |value: Option<&str>| {
                let mut doc = root.clone();
                match value {
                    Some(text) => *at(&mut doc, field.path) = Json::parse(text).unwrap(),
                    None => drop_field(&mut doc, field.path),
                }
                decode(&doc.encode())
            };
            match &field.presence {
                Presence::Required => assert_eq!(
                    decode_with(None),
                    Err(format!("missing field {key:?}")),
                    "dropping {}",
                    field.path
                ),
                Presence::Optional(reset) => {
                    let mut expected = sample.clone();
                    reset(&mut expected);
                    assert_eq!(decode_with(None), Ok(expected), "omitting {}", field.path);
                }
                Presence::Element => {}
            }
            let (wrong, error) = match field.kind {
                Kind::Num => ("\"7\"", format!("{label} must be a number")),
                Kind::Uint | Kind::UintMax(_) => {
                    ("-1", format!("{label} must be a non-negative integer"))
                }
                Kind::Str | Kind::Named => ("7", format!("{label} must be a string")),
                Kind::Bool => ("1", format!("{label} must be a boolean")),
                Kind::Arr => ("{}", format!("{label} must be an array")),
                Kind::Map => ("[]", format!("{label} must be an object")),
                Kind::Obj(first) => ("7", format!("missing field {first:?}")),
            };
            assert_eq!(
                decode_with(Some(wrong)),
                Err(error),
                "{} = {wrong}",
                field.path
            );
            if let Kind::UintMax(max) = field.kind {
                assert!(
                    decode_with(Some(&max.to_string())).is_ok(),
                    "{} = MAX",
                    field.path
                );
                assert_eq!(
                    decode_with(Some(&(max + 1).to_string())),
                    Err(format!("{label} {} out of range (max {max})", max + 1)),
                    "{} = MAX + 1",
                    field.path
                );
            }
        }
    }

    const U8: Kind = Kind::UintMax(u8::MAX as u64);
    const U32: Kind = Kind::UintMax(u32::MAX as u64);

    fn spectrum() -> QuerySpectrum {
        QuerySpectrum {
            id: 9,
            precursor_mz: 512.25,
            precursor_charge: 3,
            peaks: vec![(101.5, 0.75), (202.0, 1.0)],
        }
    }

    fn spectrum_fields<T>() -> Vec<Field<T>> {
        vec![
            req("spectra", Kind::Arr),
            req("spectra.0.id", U32),
            req("spectra.0.precursor_mz", Kind::Num),
            req("spectra.0.precursor_charge", U8),
            labelled("spectra.0.peaks", Kind::Arr, "spectrum peaks"),
            element("spectra.0.peaks.0.0", Kind::Num, "peak mz"),
            element("spectra.0.peaks.0.1", Kind::Num, "peak intensity"),
        ]
    }

    fn check_request(sample: Request, fields: Vec<Field<Request>>) {
        check(&sample, Request::encode, Request::decode, &fields);
    }

    fn check_response(sample: Response, fields: Vec<Field<Response>>) {
        check(&sample, Response::encode, Response::decode, &fields);
    }

    #[test]
    fn every_request_field_honours_its_policy() {
        for bare in [
            Request::Ping,
            Request::ListIndexes,
            Request::ServerStats,
            Request::ServerMetrics,
        ] {
            check_request(bare, Vec::new());
        }
        let sample = Request::Query(QueryRequest {
            index: "iprg".to_owned(),
            window: WindowKind::Standard,
            fdr: 0.05,
            tier: Tier::Interactive,
            prefilter: Some(PrefilterConfig::TopK(32)),
            spectra: vec![spectrum()],
        });
        fn query(r: &mut Request) -> &mut QueryRequest {
            match r {
                Request::Query(q) => q,
                _ => unreachable!(),
            }
        }
        let mut fields = vec![
            req("index", Kind::Str),
            opt("window", Kind::Named, |r| {
                query(r).window = WindowKind::Open
            }),
            opt("fdr", Kind::Num, |r| query(r).fdr = DEFAULT_FDR),
            opt("tier", Kind::Named, |r| query(r).tier = Tier::Batch),
            opt("prefilter", Kind::Named, |r| query(r).prefilter = None),
        ];
        fields.extend(spectrum_fields());
        check_request(sample, fields);

        check_request(
            Request::SessionOpen {
                index: "iprg".to_owned(),
                window: WindowKind::Standard,
                tier: Tier::Interactive,
                prefilter: Some(PrefilterConfig::Off),
            },
            vec![
                req("index", Kind::Str),
                opt("window", Kind::Named, |r| {
                    if let Request::SessionOpen { window, .. } = r {
                        *window = WindowKind::Open;
                    }
                }),
                opt("tier", Kind::Named, |r| {
                    if let Request::SessionOpen { tier, .. } = r {
                        *tier = Tier::Batch;
                    }
                }),
                opt("prefilter", Kind::Named, |r| {
                    if let Request::SessionOpen { prefilter, .. } = r {
                        *prefilter = None;
                    }
                }),
            ],
        );
        let mut fields = vec![req("session", Kind::Uint)];
        fields.extend(spectrum_fields());
        check_request(
            Request::SessionSubmit {
                session: 4,
                spectra: vec![spectrum()],
            },
            fields,
        );
        check_request(
            Request::SessionFinalize {
                session: 4,
                fdr: 0.1,
            },
            vec![
                req("session", Kind::Uint),
                opt("fdr", Kind::Num, |r| {
                    if let Request::SessionFinalize { fdr, .. } = r {
                        *fdr = DEFAULT_FDR;
                    }
                }),
            ],
        );
        check_request(
            Request::SessionClose { session: 4 },
            vec![req("session", Kind::Uint)],
        );
        check_request(
            Request::IndexLoad {
                name: "hek".to_owned(),
                path: "/data/hek.hdx".to_owned(),
            },
            vec![req("name", Kind::Str), req("path", Kind::Str)],
        );
        check_request(
            Request::IndexUnload {
                name: "hek".to_owned(),
            },
            vec![req("name", Kind::Str)],
        );
    }

    #[test]
    fn every_response_field_honours_its_policy() {
        check_response(Response::Pong { protocol: 5 }, vec![req("protocol", U32)]);
        check_response(
            Response::Error {
                code: ErrorCode::Busy,
                message: "busy".to_owned(),
            },
            vec![
                opt("code", Kind::Named, |r| {
                    if let Response::Error { code, .. } = r {
                        *code = ErrorCode::General;
                    }
                }),
                req("message", Kind::Str),
            ],
        );
        let summary = IndexSummary {
            name: "iprg".to_owned(),
            backend: "exact".to_owned(),
            dim: 8192,
            entries: 1000,
            shards: 4,
        };
        check_response(
            Response::Indexes(vec![summary.clone()]),
            vec![
                req("indexes", Kind::Arr),
                req("indexes.0.name", Kind::Str),
                req("indexes.0.backend", Kind::Str),
                req("indexes.0.dim", Kind::Uint),
                req("indexes.0.entries", Kind::Uint),
                req("indexes.0.shards", Kind::Uint),
            ],
        );
        check_response(
            Response::Loaded(summary),
            vec![
                req("index", Kind::Obj("name")),
                req("index.name", Kind::Str),
                req("index.backend", Kind::Str),
                req("index.dim", Kind::Uint),
                req("index.entries", Kind::Uint),
                req("index.shards", Kind::Uint),
            ],
        );
        let mut fields = vec![
            req("index", Kind::Str),
            req("psms", Kind::Arr),
            req("psms.0.query_id", U32),
            req("psms.0.reference_id", U32),
            req("psms.0.peptide", Kind::Str),
            req("psms.0.score", Kind::Num),
            req("psms.0.is_decoy", Kind::Bool),
            req("psms.0.precursor_delta", Kind::Num),
            req("psms.0.accepted", Kind::Bool),
            req("stats", Kind::Obj("latency_ms")),
        ];
        for (key, kind) in [
            ("stats.latency_ms", Kind::Num),
            ("stats.wait_ms", Kind::Num),
            ("stats.queued", Kind::Uint),
            ("stats.workers", Kind::Uint),
            ("stats.queries", Kind::Uint),
            ("stats.rejected_queries", Kind::Uint),
            ("stats.psms", Kind::Uint),
            ("stats.identifications", Kind::Uint),
            ("stats.threshold_score", Kind::Num),
            ("stats.shards_touched", Kind::Uint),
            ("stats.candidates_scored", Kind::Uint),
            ("stats.candidates_pre", Kind::Uint),
            ("stats.candidates_post", Kind::Uint),
            ("stats.sketch_ms", Kind::Num),
            ("stats.encode_ms", Kind::Num),
            ("stats.candidates_ms", Kind::Num),
            ("stats.score_ms", Kind::Num),
            ("stats.finalize_ms", Kind::Num),
            ("stats.backend", Kind::Str),
        ] {
            fields.push(req(key, kind));
        }
        check_response(
            Response::Result(QueryResult {
                index: "iprg".to_owned(),
                rows: vec![PsmTableRow {
                    psm: Psm {
                        query_id: 9,
                        reference_id: 41,
                        score: 0.5,
                        is_decoy: true,
                        precursor_delta: -1.25,
                    },
                    peptide: "PEPTIDEK".to_owned(),
                    accepted: false,
                }],
                stats: arbitrary_batch_stats(&mut proptest::__new_case_rng("stats", 0)),
            }),
            fields,
        );
        check_response(
            Response::SessionOpened {
                session: 3,
                index: "iprg".to_owned(),
            },
            vec![req("session", Kind::Uint), req("index", Kind::Str)],
        );
        check_response(
            Response::SessionClosed { session: 3 },
            vec![req("session", Kind::Uint)],
        );
        check_response(
            Response::Unloaded {
                name: "hek".to_owned(),
            },
            vec![req("name", Kind::Str)],
        );
        let mut receipt = arbitrary_receipt(&mut proptest::__new_case_rng("receipt", 0));
        receipt.shard_timings = vec![ShardTiming {
            shard: 2,
            visits: 7,
            ms: 0.5,
        }];
        let mut fields: Vec<Field<Response>> = [
            ("session", Kind::Uint),
            ("batch", Kind::Uint),
            ("queries", Kind::Uint),
            ("rejected_queries", Kind::Uint),
            ("psms", Kind::Uint),
            ("total_psms", Kind::Uint),
            ("candidates_scored", Kind::Uint),
            ("candidates_pre", Kind::Uint),
            ("candidates_post", Kind::Uint),
            ("sketch_ms", Kind::Num),
            ("shards_touched", Kind::Uint),
            ("workers", Kind::Uint),
            ("latency_ms", Kind::Num),
            ("wait_ms", Kind::Num),
            ("encode_ms", Kind::Num),
            ("candidates_ms", Kind::Num),
            ("score_ms", Kind::Num),
            ("shard_timings", Kind::Arr),
            ("shard_timings.0.shard", U32),
            ("shard_timings.0.visits", Kind::Uint),
            ("shard_timings.0.ms", Kind::Num),
        ]
        .into_iter()
        .map(|(key, kind)| req(key, kind))
        .collect();
        check_response(Response::Receipt(receipt), fields);

        fields = [
            ("workers", Kind::Uint),
            ("queue_depth", Kind::Uint),
            ("deadline_ms", Kind::Uint),
            ("interactive_weight", Kind::Uint),
            ("interactive_queue_depth", Kind::Uint),
            ("coalesce_window_ms", Kind::Uint),
            ("memory_budget", Kind::Uint),
            ("queued", Kind::Uint),
            ("in_flight", Kind::Uint),
            ("workers_busy", Kind::Uint),
            ("peak_workers_busy", Kind::Uint),
            ("admitted", Kind::Uint),
            ("completed", Kind::Uint),
            ("rejected_busy", Kind::Uint),
            ("shed_deadline", Kind::Uint),
            ("total_wait_ms", Kind::Num),
            ("interactive", Kind::Obj("queued")),
            ("batch", Kind::Obj("queued")),
            ("coalesced_batches", Kind::Uint),
            ("coalesced_requests", Kind::Uint),
            ("prefilter_candidates_pre", Kind::Uint),
            ("prefilter_candidates_post", Kind::Uint),
            ("prefilter_sketch_ms", Kind::Num),
            ("resident_bytes", Kind::Uint),
            ("resident_shards", Kind::Uint),
            ("evictions", Kind::Uint),
            ("reloads", Kind::Uint),
            ("open_sessions", Kind::Uint),
            ("resident_indexes", Kind::Uint),
            ("interactive.queued", Kind::Uint),
            ("interactive.in_flight", Kind::Uint),
            ("interactive.admitted", Kind::Uint),
            ("interactive.completed", Kind::Uint),
            ("interactive.rejected_busy", Kind::Uint),
            ("interactive.shed_deadline", Kind::Uint),
            ("interactive.total_wait_ms", Kind::Num),
            ("batch.queued", Kind::Uint),
            ("batch.total_wait_ms", Kind::Num),
        ]
        .into_iter()
        .map(|(key, kind)| req(key, kind))
        .collect();
        check_response(
            Response::Stats(arbitrary_server_stats(&mut proptest::__new_case_rng(
                "stats", 0,
            ))),
            fields,
        );

        check_response(
            Response::Metrics(MetricsReport {
                counters: vec![("hdoms_queries_total".to_owned(), 12)],
                gauges: vec![("hdoms_open_sessions".to_owned(), -2)],
                histograms: vec![(
                    "hdoms_batch_latency_ms".to_owned(),
                    HistogramSummary {
                        count: 3,
                        sum_ms: 4.5,
                        p50_ms: 1.0,
                        p90_ms: 2.0,
                        p99_ms: 4.0,
                    },
                )],
            }),
            vec![
                req("counters", Kind::Map),
                req("gauges", Kind::Map),
                req("histograms", Kind::Map),
                element("counters.hdoms_queries_total", Kind::Uint, "counter value"),
                element("gauges.hdoms_open_sessions", Kind::Num, "gauge value"),
                element(
                    "histograms.hdoms_batch_latency_ms",
                    Kind::Obj("count"),
                    "histogram",
                ),
                req("histograms.hdoms_batch_latency_ms.count", Kind::Uint),
                req("histograms.hdoms_batch_latency_ms.sum_ms", Kind::Num),
                req("histograms.hdoms_batch_latency_ms.p50_ms", Kind::Num),
                req("histograms.hdoms_batch_latency_ms.p90_ms", Kind::Num),
                req("histograms.hdoms_batch_latency_ms.p99_ms", Kind::Num),
            ],
        );
    }

    #[test]
    fn type_tags_and_non_integral_gauges_are_described() {
        assert_eq!(
            Request::decode("{}"),
            Err("missing field \"type\"".to_owned())
        );
        assert_eq!(
            Request::decode(r#"{"type":7}"#),
            Err("request type must be a string".to_owned())
        );
        assert_eq!(
            Request::decode(r#"{"type":"pong"}"#),
            Err("unknown request type \"pong\"".to_owned())
        );
        assert_eq!(
            Response::decode(r#"{"type":7}"#),
            Err("response type must be a string".to_owned())
        );
        assert_eq!(
            Response::decode(r#"{"type":"ping"}"#),
            Err("unknown response type \"ping\"".to_owned())
        );
        assert_eq!(
            Response::decode(
                r#"{"type":"metrics","counters":{},"gauges":{"g":0.5},"histograms":{}}"#
            ),
            Err("gauge value must be an integer".to_owned())
        );
        assert_eq!(
            Request::decode(r#"{"type":"query","index":"a","window":"wide","spectra":[]}"#),
            Err("unknown window \"wide\" (open|standard)".to_owned())
        );
        assert_eq!(
            Response::decode(r#"{"type":"error","code":"teapot","message":"x"}"#),
            Err("unknown error code \"teapot\" (busy|deadline)".to_owned())
        );
        assert_eq!(
            Request::decode(
                r#"{"type":"query","index":"a","spectra":[{"id":1,"precursor_mz":2,"precursor_charge":2,"peaks":[[1]]}]}"#
            ),
            Err("each peak must be a [mz, intensity] pair".to_owned())
        );
    }

    /// Integers JSON numbers carry exactly (≤ 2⁵³).
    const EXACT: u64 = 1 << 53;

    fn uint(rng: &mut TestRng) -> u64 {
        (0..=EXACT).generate(rng)
    }

    fn size(rng: &mut TestRng) -> usize {
        uint(rng) as usize
    }

    fn float(rng: &mut TestRng) -> f64 {
        any::<f64>().generate(rng)
    }

    /// Names that exercise every escape the encoder knows.
    fn name(rng: &mut TestRng) -> String {
        "[abxyz_.\"\\é\n\t]{0,8}".generate(rng)
    }

    fn arbitrary_spectrum(rng: &mut TestRng) -> QuerySpectrum {
        QuerySpectrum {
            id: any::<u32>().generate(rng),
            precursor_mz: float(rng),
            precursor_charge: any::<u8>().generate(rng),
            peaks: collection::vec((any::<f64>(), any::<f64>()), 0..6).generate(rng),
        }
    }

    fn arbitrary_batch_stats(rng: &mut TestRng) -> BatchStats {
        BatchStats {
            latency_ms: float(rng),
            wait_ms: float(rng),
            queued: size(rng),
            workers: size(rng),
            queries: size(rng),
            rejected_queries: size(rng),
            psms: size(rng),
            identifications: size(rng),
            threshold_score: float(rng),
            shards_touched: size(rng),
            candidates_scored: size(rng),
            candidates_pre: size(rng),
            candidates_post: size(rng),
            sketch_ms: float(rng),
            encode_ms: float(rng),
            candidates_ms: float(rng),
            score_ms: float(rng),
            finalize_ms: float(rng),
            backend: name(rng),
        }
    }

    fn arbitrary_receipt(rng: &mut TestRng) -> SubmitReceipt {
        let timings = (0..(0..4usize).generate(rng))
            .map(|_| ShardTiming {
                shard: any::<u32>().generate(rng),
                visits: uint(rng),
                ms: float(rng),
            })
            .collect();
        SubmitReceipt {
            session: uint(rng),
            batch: size(rng),
            queries: size(rng),
            rejected_queries: size(rng),
            psms: size(rng),
            total_psms: size(rng),
            candidates_scored: size(rng),
            candidates_pre: size(rng),
            candidates_post: size(rng),
            sketch_ms: float(rng),
            shards_touched: size(rng),
            workers: size(rng),
            latency_ms: float(rng),
            wait_ms: float(rng),
            encode_ms: float(rng),
            candidates_ms: float(rng),
            score_ms: float(rng),
            shard_timings: timings,
        }
    }

    fn arbitrary_tier(rng: &mut TestRng) -> TierStats {
        TierStats {
            queued: size(rng),
            in_flight: size(rng),
            admitted: uint(rng),
            completed: uint(rng),
            rejected_busy: uint(rng),
            shed_deadline: uint(rng),
            total_wait_ms: float(rng),
        }
    }

    fn arbitrary_server_stats(rng: &mut TestRng) -> ServerStats {
        ServerStats {
            workers: size(rng),
            queue_depth: size(rng),
            deadline_ms: uint(rng),
            interactive_weight: size(rng),
            interactive_queue_depth: size(rng),
            coalesce_window_ms: uint(rng),
            memory_budget: uint(rng),
            queued: size(rng),
            in_flight: size(rng),
            workers_busy: size(rng),
            peak_workers_busy: size(rng),
            admitted: uint(rng),
            completed: uint(rng),
            rejected_busy: uint(rng),
            shed_deadline: uint(rng),
            total_wait_ms: float(rng),
            interactive: arbitrary_tier(rng),
            batch: arbitrary_tier(rng),
            coalesced_batches: uint(rng),
            coalesced_requests: uint(rng),
            prefilter_candidates_pre: uint(rng),
            prefilter_candidates_post: uint(rng),
            prefilter_sketch_ms: float(rng),
            resident_bytes: uint(rng),
            resident_shards: size(rng),
            evictions: uint(rng),
            reloads: uint(rng),
            open_sessions: size(rng),
            resident_indexes: size(rng),
        }
    }

    fn arbitrary_metrics(rng: &mut TestRng) -> MetricsReport {
        let entries = |rng: &mut TestRng| 0..(0..4usize).generate(rng);
        MetricsReport {
            counters: entries(rng).map(|_| (name(rng), uint(rng))).collect(),
            gauges: entries(rng)
                .map(|_| (name(rng), (-(EXACT as i64)..=EXACT as i64).generate(rng)))
                .collect(),
            histograms: entries(rng)
                .map(|_| {
                    let summary = HistogramSummary {
                        count: uint(rng),
                        sum_ms: float(rng),
                        p50_ms: float(rng),
                        p90_ms: float(rng),
                        p99_ms: float(rng),
                    };
                    (name(rng), summary)
                })
                .collect(),
        }
    }

    /// A strategy from a plain generator function.
    struct Gen<T>(fn(&mut TestRng) -> T);

    impl<T> Strategy for Gen<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    fn assert_response_identity(resp: &Response) -> Result<(), String> {
        let line = resp.encode();
        let back = Response::decode(&line)?;
        prop_assert_eq!(&back, resp);
        prop_assert_eq!(back.encode(), line);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn query_spectra_roundtrip(spectra in collection::vec(Gen(arbitrary_spectrum), 0..4)) {
            let req = Request::SessionSubmit { session: 1, spectra };
            let line = req.encode();
            let back = Request::decode(&line)?;
            prop_assert_eq!(&back, &req);
            prop_assert_eq!(back.encode(), line);
        }

        #[test]
        fn batch_stats_roundtrip(stats in Gen(arbitrary_batch_stats), index in Gen(name)) {
            assert_response_identity(&Response::Result(QueryResult {
                index,
                rows: Vec::new(),
                stats,
            }))?;
        }

        #[test]
        fn receipts_roundtrip(receipt in Gen(arbitrary_receipt)) {
            assert_response_identity(&Response::Receipt(receipt))?;
        }

        #[test]
        fn server_stats_roundtrip(stats in Gen(arbitrary_server_stats)) {
            assert_response_identity(&Response::Stats(stats))?;
        }

        #[test]
        fn metrics_reports_roundtrip(report in Gen(arbitrary_metrics)) {
            assert_response_identity(&Response::Metrics(report))?;
        }
    }
}
