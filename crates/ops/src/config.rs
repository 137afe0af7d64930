//! Dependency-free configuration: a TOML-subset file parser plus `PLA_*`
//! environment overrides, producing typed, validated configs.
//!
//! The accepted grammar is the flat-table subset of TOML the stack
//! needs: `[section]` headers, `key = value` pairs (bools, integers,
//! quoted strings), `#` comments (whole-line or trailing). Sections map
//! to the typed structs: `[ops]` → [`OpsConfig`], `[collector]` →
//! [`CollectorConfig`], `[store]` → `pla_ingest::StoreConfig`,
//! `[ingest]` → `pla_ingest::IngestConfig`.
//!
//! Environment variables named `PLA_<SECTION>_<KEY>` (e.g.
//! `PLA_COLLECTOR_WINDOW=131072`) override file values; unknown keys —
//! in the file or under a recognized env prefix — are **rejected**, not
//! ignored, so typos fail loudly at boot.

use std::fmt;
use std::time::Duration;

use pla_ingest::{IngestConfig, StoreConfig};
use pla_net::{NetConfig, SessionConfig};

/// HTTP/admin endpoint settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsConfig {
    /// Whether to serve the ops endpoint at all.
    pub enabled: bool,
    /// Listen address for the TCP form (`host:port`).
    pub listen: String,
    /// Per-request buffer cap in bytes.
    pub max_request: usize,
}

impl Default for OpsConfig {
    fn default() -> Self {
        Self { enabled: true, listen: "127.0.0.1:9090".to_string(), max_request: 64 * 1024 }
    }
}

/// Collector and session settings (durations in milliseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Stream dimensionality every connection must carry.
    pub dims: usize,
    /// Per-stream flow-control window in bytes (must match senders).
    pub window: u64,
    /// Maximum accepted frame size in bytes.
    pub max_frame: u32,
    /// Heartbeat probe interval, ms.
    pub heartbeat_ms: u64,
    /// Liveness timeout before a silent link is detached, ms.
    pub liveness_ms: u64,
    /// Handshake deadline for a mid-`Hello` link, ms.
    pub handshake_ms: u64,
    /// Detached-session eviction TTL, ms.
    pub session_ttl_ms: u64,
    /// Initial redial backoff, ms.
    pub redial_initial_ms: u64,
    /// Redial backoff cap, ms.
    pub redial_cap_ms: u64,
    /// Seed for session-token minting.
    pub token_seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        let net = NetConfig::default();
        let sess = SessionConfig::default();
        Self {
            dims: 1,
            window: net.window,
            max_frame: net.max_frame,
            heartbeat_ms: sess.heartbeat_interval.as_millis() as u64,
            liveness_ms: sess.liveness_timeout.as_millis() as u64,
            handshake_ms: sess.handshake_timeout.as_millis() as u64,
            session_ttl_ms: sess.session_ttl.as_millis() as u64,
            redial_initial_ms: sess.redial_initial.as_millis() as u64,
            redial_cap_ms: sess.redial_cap.as_millis() as u64,
            token_seed: sess.token_seed,
        }
    }
}

impl CollectorConfig {
    /// The wire-level [`NetConfig`] these settings describe.
    pub fn net_config(&self) -> NetConfig {
        NetConfig { window: self.window, max_frame: self.max_frame }
    }

    /// The [`SessionConfig`] these settings describe (version stays the
    /// protocol's own — it is a wire constant, not an operator knob).
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            heartbeat_interval: Duration::from_millis(self.heartbeat_ms),
            liveness_timeout: Duration::from_millis(self.liveness_ms),
            handshake_timeout: Duration::from_millis(self.handshake_ms),
            session_ttl: Duration::from_millis(self.session_ttl_ms),
            redial_initial: Duration::from_millis(self.redial_initial_ms),
            redial_cap: Duration::from_millis(self.redial_cap_ms),
            token_seed: self.token_seed,
            ..SessionConfig::default()
        }
    }
}

/// The full application config: one struct per section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppConfig {
    /// `[ops]` — HTTP/admin endpoint.
    pub ops: OpsConfig,
    /// `[collector]` — wire and session settings.
    pub collector: CollectorConfig,
    /// `[store]` — segment-store sharding.
    pub store: StoreConfig,
    /// `[ingest]` — local ingest engine settings.
    pub ingest: IngestConfig,
}

/// A configuration error: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Malformed line (no `=`, bad section header, unterminated quote).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A `[section]` the schema does not define.
    UnknownSection(String),
    /// A key the section does not define.
    UnknownKey {
        /// The section the key appeared in.
        section: String,
        /// The offending key.
        key: String,
    },
    /// A value that does not parse as the key's type, or fails
    /// validation.
    InvalidValue {
        /// The offending key (`section.key`).
        key: String,
        /// The raw value.
        value: String,
        /// What the key expects.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, msg } => write!(f, "config line {line}: {msg}"),
            ConfigError::UnknownSection(s) => write!(f, "unknown config section [{s}]"),
            ConfigError::UnknownKey { section, key } => {
                write!(f, "unknown config key {section}.{key}")
            }
            ConfigError::InvalidValue { key, value, expected } => {
                write!(f, "config key {key}: {value:?} is not a valid {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Strips a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_quotes {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_quotes = false;
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

/// Unquotes a value token: `"..."` with `\"`/`\\`/`\n` escapes, or the
/// bare token verbatim (the form env values arrive in).
fn unquote(raw: &str, line: usize) -> Result<String, ConfigError> {
    let raw = raw.trim();
    if !raw.starts_with('"') {
        return Ok(raw.to_string());
    }
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or(ConfigError::Syntax { line, msg: "unterminated string".to_string() })?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            _ => {
                return Err(ConfigError::Syntax { line, msg: "bad string escape".to_string() });
            }
        }
    }
    Ok(out)
}

macro_rules! parse_num {
    ($cfg:expr, $section:literal, $key:literal, $raw:expr, $ty:ty, $min:expr) => {{
        let v: $ty = $raw.parse().map_err(|_| ConfigError::InvalidValue {
            key: concat!($section, ".", $key).to_string(),
            value: $raw.to_string(),
            expected: stringify!($ty),
        })?;
        if v < $min {
            return Err(ConfigError::InvalidValue {
                key: concat!($section, ".", $key).to_string(),
                value: $raw.to_string(),
                expected: concat!(stringify!($ty), " >= ", stringify!($min)),
            });
        }
        v
    }};
}

fn parse_bool(section: &str, key: &str, raw: &str) -> Result<bool, ConfigError> {
    match raw {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(ConfigError::InvalidValue {
            key: format!("{section}.{key}"),
            value: raw.to_string(),
            expected: "bool",
        }),
    }
}

impl AppConfig {
    /// Applies one `section.key = value` assignment. Shared by the file
    /// parser and the env-override path, so both enforce the same
    /// schema, types, and bounds.
    fn set(&mut self, section: &str, key: &str, raw: &str) -> Result<(), ConfigError> {
        match (section, key) {
            ("ops", "enabled") => self.ops.enabled = parse_bool(section, key, raw)?,
            ("ops", "listen") => self.ops.listen = raw.to_string(),
            ("ops", "max_request") => {
                self.ops.max_request = parse_num!(self, "ops", "max_request", raw, usize, 1)
            }
            ("collector", "dims") => {
                self.collector.dims = parse_num!(self, "collector", "dims", raw, usize, 1)
            }
            ("collector", "window") => {
                self.collector.window = parse_num!(self, "collector", "window", raw, u64, 1)
            }
            ("collector", "max_frame") => {
                self.collector.max_frame = parse_num!(self, "collector", "max_frame", raw, u32, 1)
            }
            ("collector", "heartbeat_ms") => {
                self.collector.heartbeat_ms =
                    parse_num!(self, "collector", "heartbeat_ms", raw, u64, 1)
            }
            ("collector", "liveness_ms") => {
                self.collector.liveness_ms =
                    parse_num!(self, "collector", "liveness_ms", raw, u64, 1)
            }
            ("collector", "handshake_ms") => {
                self.collector.handshake_ms =
                    parse_num!(self, "collector", "handshake_ms", raw, u64, 1)
            }
            ("collector", "session_ttl_ms") => {
                self.collector.session_ttl_ms =
                    parse_num!(self, "collector", "session_ttl_ms", raw, u64, 1)
            }
            ("collector", "redial_initial_ms") => {
                self.collector.redial_initial_ms =
                    parse_num!(self, "collector", "redial_initial_ms", raw, u64, 1)
            }
            ("collector", "redial_cap_ms") => {
                self.collector.redial_cap_ms =
                    parse_num!(self, "collector", "redial_cap_ms", raw, u64, 1)
            }
            ("collector", "token_seed") => {
                self.collector.token_seed = raw.parse().map_err(|_| ConfigError::InvalidValue {
                    key: "collector.token_seed".to_string(),
                    value: raw.to_string(),
                    expected: "u64",
                })?
            }
            ("store", "shards") => {
                self.store.shards = parse_num!(self, "store", "shards", raw, usize, 1)
            }
            ("store", "seal_threshold") => {
                self.store.seal_threshold =
                    parse_num!(self, "store", "seal_threshold", raw, usize, 1)
            }
            ("ingest", "shards") => {
                self.ingest.shards = parse_num!(self, "ingest", "shards", raw, usize, 1)
            }
            ("ingest", "queue_depth") => {
                self.ingest.queue_depth = parse_num!(self, "ingest", "queue_depth", raw, usize, 1)
            }
            ("ops" | "collector" | "store" | "ingest", _) => {
                return Err(ConfigError::UnknownKey {
                    section: section.to_string(),
                    key: key.to_string(),
                });
            }
            _ => return Err(ConfigError::UnknownSection(section.to_string())),
        }
        Ok(())
    }

    /// Parses a config file body on top of the defaults.
    pub fn parse_str(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Self::default();
        let mut section = String::new();
        for (i, raw_line) in text.lines().enumerate() {
            let ln = i + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or(ConfigError::Syntax {
                    line: ln,
                    msg: "unterminated section header".to_string(),
                })?;
                section = name.trim().to_string();
                if !matches!(section.as_str(), "ops" | "collector" | "store" | "ingest") {
                    return Err(ConfigError::UnknownSection(section));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ConfigError::Syntax { line: ln, msg: "expected key = value".to_string() })?;
            let key = key.trim();
            if section.is_empty() {
                return Err(ConfigError::Syntax {
                    line: ln,
                    msg: format!("key {key:?} outside any [section]"),
                });
            }
            let value = unquote(value, ln)?;
            cfg.set(&section, key, &value)?;
        }
        Ok(cfg)
    }

    /// Applies `PLA_<SECTION>_<KEY>` overrides from an explicit
    /// variable iterator (tests inject; [`load_str`](Self::load_str)
    /// passes the process environment). Variables under a recognized
    /// section prefix with an unknown key are rejected; everything else
    /// is ignored.
    pub fn apply_env<I>(&mut self, vars: I) -> Result<(), ConfigError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        for (name, value) in vars {
            let Some(rest) = name.strip_prefix("PLA_") else { continue };
            let Some((section, key)) =
                rest.split_once('_').map(|(s, k)| (s.to_ascii_lowercase(), k.to_ascii_lowercase()))
            else {
                continue;
            };
            if !matches!(section.as_str(), "ops" | "collector" | "store" | "ingest") {
                continue;
            }
            self.set(&section, &key, value.trim())?;
        }
        Ok(())
    }

    /// File body + env overrides in one step: env wins over file, file
    /// wins over defaults.
    pub fn load_str<I>(text: &str, vars: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        let mut cfg = Self::parse_str(text)?;
        cfg.apply_env(vars)?;
        Ok(cfg)
    }

    /// Reads `path` and applies the process environment's `PLA_*`
    /// overrides.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::load_str(&text, std::env::vars()).map_err(|e| e.to_string())
    }

    /// Serializes every section and key back to the file grammar, such
    /// that `parse_str(cfg.to_file_string()) == cfg` — the round-trip
    /// the config tests pin.
    pub fn to_file_string(&self) -> String {
        let quote = |s: &str| {
            format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"))
        };
        format!(
            "[ops]\nenabled = {}\nlisten = {}\nmax_request = {}\n\n\
             [collector]\ndims = {}\nwindow = {}\nmax_frame = {}\n\
             heartbeat_ms = {}\nliveness_ms = {}\nhandshake_ms = {}\nsession_ttl_ms = {}\n\
             redial_initial_ms = {}\nredial_cap_ms = {}\ntoken_seed = {}\n\n\
             [store]\nshards = {}\nseal_threshold = {}\n\n\
             [ingest]\nshards = {}\nqueue_depth = {}\n",
            self.ops.enabled,
            quote(&self.ops.listen),
            self.ops.max_request,
            self.collector.dims,
            self.collector.window,
            self.collector.max_frame,
            self.collector.heartbeat_ms,
            self.collector.liveness_ms,
            self.collector.handshake_ms,
            self.collector.session_ttl_ms,
            self.collector.redial_initial_ms,
            self.collector.redial_cap_ms,
            self.collector.token_seed,
            self.store.shards,
            self.store.seal_threshold,
            self.ingest.shards,
            self.ingest.queue_depth,
        )
    }
}
