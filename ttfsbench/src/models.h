// Fixed-seed synthetic networks and seeded inputs. Nothing is trained,
// read from disk or downloaded: weights come from a fixed seed, so every run
// measures the same models; inputs come from the run's --seed.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/network.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ttfsbench {

// Seed of every model's weights.
inline constexpr std::uint64_t kWeightSeed = 42;

// The ttfs_wire_server net (3x16x16 input): conv16-pool-conv24-pool-fc10.
// Successive calls on one Rng give same-architecture models with different
// weights ("m0", "m1", ...), exactly as the daemon registers them.
ttfs::snn::SnnNetwork make_wire_net(ttfs::Rng& rng);

// The 32x32 VGG-style stack of bench_event_sim_hotpath: five convs in three
// pooled stages, then a classifier.
ttfs::snn::SnnNetwork make_vgg_net(ttfs::Rng& rng);

// `count` images of shape (c, h, w) with pixels uniform in [0, 1).
std::vector<ttfs::Tensor> make_images(std::size_t count, std::int64_t c, std::int64_t h,
                                      std::int64_t w, ttfs::Rng& rng);

}  // namespace ttfsbench
