#include "models.h"

#include <utility>

namespace ttfsbench {

using ttfs::Rng;
using ttfs::Tensor;

namespace {

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

}  // namespace

ttfs::snn::SnnNetwork make_wire_net(Rng& rng) {
  ttfs::snn::SnnNetwork net{ttfs::snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({24, 16, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 24 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

ttfs::snn::SnnNetwork make_vgg_net(Rng& rng) {
  ttfs::snn::SnnNetwork net{ttfs::snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(random_tensor({16, 16, 3, 3}, rng, -0.1F, 0.18F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({32, 16, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(random_tensor({32, 32, 3, 3}, rng, -0.08F, 0.12F),
               random_tensor({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({64, 32, 3, 3}, rng, -0.08F, 0.1F),
               random_tensor({64}, rng, -0.04F, 0.08F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 64 * 4 * 4}, rng, -0.08F, 0.1F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(std::size_t count, std::int64_t c, std::int64_t h,
                                std::int64_t w, Rng& rng) {
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) images.push_back(random_tensor({c, h, w}, rng, 0.0F, 1.0F));
  return images;
}

}  // namespace ttfsbench
