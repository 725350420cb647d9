//! Fixture: an ambient env read outside the designated config modules.
//! Registered variables (`VVD_WORKERS`, `VVD_CHECKPOINT_TICKS`) get no
//! dispensation, and neither does an unregistered one (`VVD_PIPELINE`):
//! the allowlist is the *module that owns the read*, never the variable
//! name.

pub fn workers() -> usize {
    std::env::var("VVD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub fn pipeline() -> bool {
    std::env::var("VVD_PIPELINE").is_ok()
}

pub fn checkpoint_ticks() -> Option<String> {
    std::env::var("VVD_CHECKPOINT_TICKS").ok()
}
