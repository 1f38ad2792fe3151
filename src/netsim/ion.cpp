#include "netsim/ion.hpp"

namespace bgckpt::net {

IonForwarding::IonForwarding(sim::Scheduler& sched,
                             const machine::Machine& mach,
                             obs::Observability* obs)
    : sched_(sched), mach_(mach), obs_(obs) {
  for (int p = 0; p < mach.numPsets(); ++p) uplink_.emplace_back(sched, 1, "ion-uplink");
  if (obs_) {
    auto& m = obs_->metrics();
    mRequests_ = &m.counter("net.ion.requests");
    mBytes_ = &m.counter("net.ion.bytes");
    mBusy_ = &m.gauge("net.ion.busy_seconds");
    m.gauge("net.ion.links").set(static_cast<double>(mach.numPsets()));
  }
}

sim::Task<> IonForwarding::forward(int rank, sim::Bytes bytes,
                                   obs::OpTraceContext otc) {
  const auto pset = static_cast<std::size_t>(mach_.psetOfRank(rank));
  const sim::SimTime queueStart = sched_.now();
  {
    auto link = co_await sim::ScopedTokens::take(uplink_[pset], 1);
    otc.hop(obs::Hop::kIonQueue, queueStart, sched_.now());
    const sim::Duration busy =
        mach_.io().forwardingOverhead +
        sim::transferTime(bytes, mach_.io().ionUplinkBandwidth);
    const sim::SimTime start = sched_.now();
    co_await sched_.delay(busy);
    otc.hop(obs::Hop::kIonForward, start, sched_.now(), bytes);
    if (obs_) {
      mRequests_->add();
      mBytes_->add(bytes);
      mBusy_->add(busy);
      if (obs_->tracing(obs::Layer::kNetwork))
        obs_->completeBytes(obs::Layer::kNetwork, rank, "ion.forward", start,
                            sched_.now(), bytes);
    }
  }
  ++requests_;
  bytes_ += bytes;
}

}  // namespace bgckpt::net
