// GPFS-style byte-range token manager (one instance per file).
//
// GPFS serialises concurrent writers with distributed byte-range tokens at
// filesystem-block granularity. A client must hold a write token covering a
// block before writing it; a conflicting request forces the token manager to
// *revoke* the overlapping tokens from their holders (an expensive round
// trip plus a dirty-data flush at the holder). This class implements the
// bookkeeping; the GPFS engine charges time per operation and per
// revocation.
//
// Granting policy mirrors GPFS's optimistic negotiation: the first client
// to touch a file is granted the whole file (so a lone writer never
// negotiates again); later conflicting requests carve their needed range
// out of existing holdings.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace bgckpt::fs {

/// A half-open block range [lo, hi).
struct BlockRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const BlockRange&) const = default;
};

class RangeTokenManager {
 public:
  /// Result of an acquire: how many holders had to be revoked, and whether
  /// the requester already held the full range (no token traffic at all).
  struct AcquireResult {
    int revocations = 0;
    bool alreadyHeld = false;
  };

  /// Ensure `client` holds a write token covering `required`.
  ///
  /// GPFS negotiation distinguishes the *required* range (must be granted)
  /// from a *desired* range (granted opportunistically): a holder whose
  /// token conflicts with `required` relinquishes its whole overlap with
  /// `desired`, and free space inside `desired` adjacent to the grant is
  /// claimed without cost. ROMIO-style ascending writers pass
  /// desired = [required.lo, infinity) and settle into disjoint domains
  /// after one revocation each. With `desired` omitted, exactly `required`
  /// is negotiated.
  AcquireResult acquire(int client, BlockRange required);
  AcquireResult acquire(int client, BlockRange required, BlockRange desired);

  /// True when `client` already holds every block of `range`.
  bool holds(int client, BlockRange range) const;

  /// Drop all of a client's tokens (file close).
  void releaseClient(int client);

  /// Number of distinct token holdings (diagnostic).
  std::size_t holdingCount() const { return holdings_.size(); }

  /// Total revocations performed over this manager's lifetime.
  std::uint64_t totalRevocations() const { return totalRevocations_; }

  /// Grants that needed token traffic (acquires not already satisfied by a
  /// held range).
  std::uint64_t totalGrants() const { return totalGrants_; }

 private:
  struct Holding {
    std::uint64_t hi = 0;
    int client = -1;
  };

  void insertMerged(int client, BlockRange range);

  // Non-overlapping holdings keyed by lo block.
  std::map<std::uint64_t, Holding> holdings_;
  bool virgin_ = true;  // no client has touched the file yet
  std::uint64_t totalRevocations_ = 0;
  std::uint64_t totalGrants_ = 0;
};

}  // namespace bgckpt::fs
