/// \file ideal_network.hpp
/// Test helper: pins the network model to ideal values (bandwidth factor 1,
/// a TCP window of 1e18 bytes, i.e. no window cap) for its lifetime and
/// restores the values it found on destruction. Fixtures hold one as a
/// member, so every test starts from the same clean model and a test that
/// changes a key itself cannot leak its value into the next one.
#pragma once

#include "core/engine.hpp"
#include "xbt/settings.hpp"

namespace sg::test {

class IdealNetwork {
public:
  IdealNetwork() {
    core::declare_engine_config();
    saved_factor_ = config::get(core::kCfgBandwidthFactor);
    saved_gamma_ = config::get(core::kCfgTcpGamma);
    config::set(core::kCfgBandwidthFactor, 1.0);
    config::set(core::kCfgTcpGamma, 1e18);
  }
  ~IdealNetwork() {
    config::set(core::kCfgBandwidthFactor, saved_factor_);
    config::set(core::kCfgTcpGamma, saved_gamma_);
  }
  IdealNetwork(const IdealNetwork&) = delete;
  IdealNetwork& operator=(const IdealNetwork&) = delete;

private:
  double saved_factor_ = 0.0;
  double saved_gamma_ = 0.0;
};

}  // namespace sg::test
