#include "storsim/fabric.hpp"

#include <algorithm>

namespace bgckpt::stor {

StorageFabric::StorageFabric(sim::Scheduler& sched,
                             const machine::Machine& mach, std::uint64_t seed,
                             NoiseModel noise, int serverConcurrency,
                             obs::Observability* obs)
    : sched_(sched),
      mach_(mach),
      obs_(obs),
      rng_(seed, "storage-fabric"),
      noise_(noise) {
  for (int s = 0; s < numServers(); ++s)
    servers_.emplace_back(sched, serverConcurrency, "fs-server");
  for (int a = 0; a < numArrays(); ++a) arrayPorts_.emplace_back(sched, 1, "ddn-array-port");
  if (obs_) {
    auto& m = obs_->metrics();
    mRequests_ = &m.counter("stor.requests");
    mBytes_ = &m.counter("stor.bytes_written");
    mServerBusy_ = &m.gauge("stor.server.busy_seconds");
    mArrayBusy_ = &m.gauge("stor.array.busy_seconds");
    mStreamsMax_ = &m.gauge("stor.active_streams.max");
    mServiceTime_ = &m.histogram("stor.service_time", 0.0, 2.0, 100);
    // Server "links" count stream slots so utilization is a 0..1 fraction
    // of the fabric's aggregate service capacity.
    m.gauge("stor.server.links")
        .set(static_cast<double>(numServers() * serverConcurrency));
    m.gauge("stor.array.links").set(static_cast<double>(numArrays()));
  }
}

sim::Task<> StorageFabric::write(int serverId, StreamId stream,
                                 sim::Bytes bytes,
                                 sim::Bandwidth effectiveServerBandwidth,
                                 obs::OpTraceContext otc) {
  co_await service(serverId, stream, bytes, effectiveServerBandwidth,
                   mach_.io().ddnWriteBandwidth, otc);
  bytesWritten_ += bytes;
  if (mBytes_) mBytes_->add(bytes);
}

sim::Task<> StorageFabric::read(int serverId, StreamId stream,
                                sim::Bytes bytes,
                                sim::Bandwidth effectiveServerBandwidth,
                                obs::OpTraceContext otc) {
  co_await service(serverId, stream, bytes, effectiveServerBandwidth,
                   mach_.io().ddnWriteBandwidth * 1.28,  // 60/47 read:write
                   otc);
}

sim::Task<> StorageFabric::service(int serverId, StreamId stream,
                                   sim::Bytes bytes,
                                   sim::Bandwidth serverRate,
                                   sim::Bandwidth arrayRate,
                                   obs::OpTraceContext otc) {
  const double start = sched_.now();
  auto& server = servers_.at(static_cast<std::size_t>(serverId));
  auto& arrayPort = arrayPorts_[static_cast<std::size_t>(arrayOfServer(serverId))];

  // Stage 1: the file server ingests and processes the request.
  {
    auto hold = co_await sim::ScopedTokens::take(server, 1);
    otc.hop(obs::Hop::kServerQueue, start, sched_.now());
    const double factor = noiseFactor();
    const sim::Duration busy =
        mach_.io().serverRequestOverhead * factor +
        sim::transferTime(bytes, serverRate) * factor;
    const sim::SimTime serviceStart = sched_.now();
    co_await sched_.delay(busy);
    otc.hop(obs::Hop::kServerService, serviceStart, sched_.now(), bytes);
    if (mServerBusy_) mServerBusy_->add(busy);
  }

  // Stage 2: the backing DDN array commits the data. Eight servers share
  // one array, so this is where cross-server interference appears.
  {
    const sim::SimTime arrayStart = sched_.now();
    auto hold = co_await sim::ScopedTokens::take(arrayPort, 1);
    otc.hop(obs::Hop::kArrayQueue, arrayStart, sched_.now());
    const sim::Duration busy =
        seekPenalty(stream) + sim::transferTime(bytes, arrayRate);
    const sim::SimTime commitStart = sched_.now();
    co_await sched_.delay(busy);
    otc.hop(obs::Hop::kDdnCommit, commitStart, sched_.now(), bytes);
    if (mArrayBusy_) mArrayBusy_->add(busy);
  }

  ++requests_;
  serviceTime_.add(sched_.now() - start);
  if (obs_) {
    mRequests_->add();
    mServiceTime_->add(sched_.now() - start);
    mStreamsMax_->setMax(static_cast<double>(activeStreams()));
    if (obs_->tracing(obs::Layer::kStorage))
      obs_->completeBytes(obs::Layer::kStorage, serverId, "service", start,
                          sched_.now(), bytes);
  }
}

double StorageFabric::noiseFactor() {
  if (noise_.severeProbability > 0 && rng_.chance(noise_.severeProbability))
    return rng_.lognormal(noise_.severeFactorMedian, noise_.severeFactorSigma);
  if (noise_.slowProbability > 0 && rng_.chance(noise_.slowProbability))
    return rng_.lognormal(noise_.slowFactorMedian, noise_.slowFactorSigma);
  return 1.0;
}

sim::Duration StorageFabric::seekPenalty(StreamId stream) {
  const double now = sched_.now();
  expireStreams(now);
  auto [it, inserted] = recentStreams_.try_emplace(stream, now);
  if (inserted) {
    ++activeCount_;
  } else {
    it->second = now;
  }
  touches_.emplace_back(now, stream);
  const int active = activeStreams();
  const int knee = mach_.io().ddnStreamKnee;
  if (active <= knee) return 0.0;
  // Every request pays a reposition cost proportional to how far past the
  // knee the interleave factor is; the penalty saturates once the arms are
  // seeking on effectively every request.
  const double excess = std::min(
      1.5, static_cast<double>(active - knee) / static_cast<double>(knee));
  return mach_.io().ddnSeekPenalty * excess;
}

int StorageFabric::activeStreams() const {
  const sim::SimTime now = sched_.now();
  if (now == activeCacheTime_) return activeCache_;
  expireStreams(now);
  activeCache_ = activeCount_;
  activeCacheTime_ = now;
  return activeCache_;
}

void StorageFabric::expireStreams(sim::SimTime now) const {
  // A touch record at time t stops counting once now - t > kStreamWindow.
  // The record carries the stream's then-latest touch time, so the stream
  // retires only if it was not touched again since (map value unchanged);
  // after the drain every surviving map entry is within the window.
  while (!touches_.empty() && now - touches_.front().first > kStreamWindow) {
    const auto [t, s] = touches_.front();
    touches_.pop_front();
    auto it = recentStreams_.find(s);
    if (it != recentStreams_.end() && it->second == t) {
      recentStreams_.erase(it);
      --activeCount_;
    }
  }
}

}  // namespace bgckpt::stor
