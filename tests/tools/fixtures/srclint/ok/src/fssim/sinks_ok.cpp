// Fixture: seeded RNG instead of libc randomness, SIM_CHECK instead of
// assert.
struct Rng {
  double next();
};

double jitter(Rng& rng) { return rng.next(); }
