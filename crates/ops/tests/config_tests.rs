//! Config layer tests: defaults, file parsing, env precedence, loud
//! rejection of unknown keys/sections/bad values, and the full-field
//! round-trip through `to_file_string`.

use pla_ops::{AppConfig, ConfigError};

#[test]
fn empty_file_is_the_defaults() {
    assert_eq!(AppConfig::parse_str("").expect("empty parses"), AppConfig::default());
    assert_eq!(
        AppConfig::parse_str("# only comments\n\n  # and blanks\n").expect("comments parse"),
        AppConfig::default()
    );
}

#[test]
fn file_values_override_defaults() {
    let cfg = AppConfig::parse_str(
        "[ops]\n\
         enabled = false\n\
         listen = \"0.0.0.0:9100\"  # trailing comment\n\
         max_request = 4096\n\
         \n\
         [collector]\n\
         dims = 3\n\
         window = 2048\n\
         token_seed = 12345\n\
         \n\
         [store]\n\
         shards = 4\n\
         \n\
         [ingest]\n\
         queue_depth = 64\n",
    )
    .expect("valid file");
    assert!(!cfg.ops.enabled);
    assert_eq!(cfg.ops.listen, "0.0.0.0:9100");
    assert_eq!(cfg.ops.max_request, 4096);
    assert_eq!(cfg.collector.dims, 3);
    assert_eq!(cfg.collector.window, 2048);
    assert_eq!(cfg.collector.token_seed, 12345);
    assert_eq!(cfg.store.shards, 4);
    assert_eq!(cfg.ingest.queue_depth, 64);
    // Untouched keys keep their defaults.
    assert_eq!(cfg.collector.max_frame, AppConfig::default().collector.max_frame);
    // The typed views reflect the file.
    assert_eq!(cfg.collector.net_config().window, 2048);
}

#[test]
fn env_wins_over_file_and_file_over_defaults() {
    let file = "[collector]\nwindow = 2048\nheartbeat_ms = 75\n";
    let env = vec![
        ("PLA_COLLECTOR_WINDOW".to_string(), "4096".to_string()),
        ("PLA_OPS_LISTEN".to_string(), "10.0.0.1:9200".to_string()),
        // Noise the loader must ignore: unrelated vars and unrelated
        // prefixes.
        ("PATH".to_string(), "/usr/bin".to_string()),
        ("PLA_UNRELATED_THING".to_string(), "x".to_string()),
    ];
    let cfg = AppConfig::load_str(file, env).expect("env applies");
    assert_eq!(cfg.collector.window, 4096, "env beats file");
    assert_eq!(cfg.collector.heartbeat_ms, 75, "file beats defaults");
    assert_eq!(cfg.ops.listen, "10.0.0.1:9200", "env beats defaults");
}

#[test]
fn unknown_keys_sections_and_bad_values_fail_loudly() {
    assert_eq!(
        AppConfig::parse_str("[ops]\nlisten_addr = \"x\"\n"),
        Err(ConfigError::UnknownKey { section: "ops".to_string(), key: "listen_addr".to_string() })
    );
    assert_eq!(
        AppConfig::parse_str("[metrics]\nenabled = true\n"),
        Err(ConfigError::UnknownSection("metrics".to_string()))
    );
    assert!(matches!(
        AppConfig::parse_str("[collector]\nwindow = banana\n"),
        Err(ConfigError::InvalidValue { .. })
    ));
    assert!(
        matches!(
            AppConfig::parse_str("[collector]\nwindow = 0\n"),
            Err(ConfigError::InvalidValue { .. }),
        ),
        "zero window must fail the minimum bound"
    );
    assert!(matches!(
        AppConfig::parse_str("[ops]\nenabled = yes\n"),
        Err(ConfigError::InvalidValue { .. })
    ));
    assert!(
        matches!(AppConfig::parse_str("key = 1\n"), Err(ConfigError::Syntax { line: 1, .. })),
        "keys outside a section are syntax errors"
    );
    assert!(matches!(
        AppConfig::parse_str("[ops\nenabled = true\n"),
        Err(ConfigError::Syntax { line: 1, .. })
    ));
    // Typos under a recognized env prefix are rejected, not ignored.
    let mut cfg = AppConfig::default();
    assert_eq!(
        cfg.apply_env(vec![("PLA_OPS_LISTN".to_string(), "x".to_string())]),
        Err(ConfigError::UnknownKey { section: "ops".to_string(), key: "listn".to_string() })
    );
}

#[test]
fn the_retired_sessions_knob_fails_loudly() {
    // The collector has one mode, so `sessions` is no longer a key: a
    // config that still sets it must fail at boot rather than be
    // silently ignored, whichever value it asks for and wherever it
    // comes from.
    let unknown = Err(ConfigError::UnknownKey {
        section: "collector".to_string(),
        key: "sessions".to_string(),
    });
    assert_eq!(AppConfig::parse_str("[collector]\nsessions = true\n"), unknown);
    let env = vec![("PLA_COLLECTOR_SESSIONS".to_string(), "false".to_string())];
    assert_eq!(AppConfig::load_str("", env), unknown);
}

#[test]
fn every_field_round_trips_through_the_file_grammar() {
    // Give every field a non-default value so a dropped or misspelled
    // key in either direction breaks the equality.
    let mut cfg = AppConfig::default();
    cfg.ops.enabled = false;
    cfg.ops.listen = "weird \"quoted\" \\ host\nname:1".to_string();
    cfg.ops.max_request = 777;
    cfg.collector.dims = 5;
    cfg.collector.window = 9999;
    cfg.collector.max_frame = 123_456;
    cfg.collector.heartbeat_ms = 11;
    cfg.collector.liveness_ms = 22;
    cfg.collector.handshake_ms = 33;
    cfg.collector.session_ttl_ms = 44;
    cfg.collector.redial_initial_ms = 55;
    cfg.collector.redial_cap_ms = 66;
    cfg.collector.token_seed = u64::MAX;
    cfg.store.shards = 7;
    cfg.store.seal_threshold = 88;
    cfg.ingest.shards = 9;
    cfg.ingest.queue_depth = 101;

    let text = cfg.to_file_string();
    let back = AppConfig::parse_str(&text).expect("serialized config re-parses");
    assert_eq!(back, cfg, "lossy round-trip through:\n{text}");

    // And the default round-trips too.
    let default_text = AppConfig::default().to_file_string();
    assert_eq!(
        AppConfig::parse_str(&default_text).expect("defaults re-parse"),
        AppConfig::default()
    );

    // The env path accepts the same values the file path does.
    let mut env_cfg = AppConfig::default();
    env_cfg
        .apply_env(vec![("PLA_COLLECTOR_TOKEN_SEED".to_string(), u64::MAX.to_string())])
        .expect("env token_seed");
    assert_eq!(env_cfg.collector.token_seed, u64::MAX);
}

#[test]
fn typed_views_carry_durations() {
    let cfg = AppConfig::parse_str(
        "[collector]\nheartbeat_ms = 50\nliveness_ms = 250\nhandshake_ms = 100\n",
    )
    .expect("valid");
    let sess = cfg.collector.session_config();
    assert_eq!(sess.heartbeat_interval, std::time::Duration::from_millis(50));
    assert_eq!(sess.liveness_timeout, std::time::Duration::from_millis(250));
    assert_eq!(sess.handshake_timeout, std::time::Duration::from_millis(100));
}
