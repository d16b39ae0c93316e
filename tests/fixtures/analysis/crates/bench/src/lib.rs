//! Bench fixture: the wall-clock rule covers the harness crates too; only a
//! read carrying an allow directive stays silent.

pub fn elapsed_ms() -> u128 {
    std::time::Instant::now().elapsed().as_millis()
}

pub fn measured_ms() -> u128 {
    // taqos-lint: allow(wall-clock) -- fixture: deliberate host-time measurement
    std::time::Instant::now().elapsed().as_millis()
}
