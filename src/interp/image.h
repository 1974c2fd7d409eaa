// Device-side image/texture representation shared by the runtimes (§5).
//
// An image object is a descriptor stored in device global memory; the
// opaque handle held by kernels (OpenCL image2d_t, a bound CUDA texture
// reference) is the descriptor's virtual address. OpenCL passes a
// separate sampler argument; CUDA texture references carry their sampler
// state in the descriptor (set by cudaBindTexture*), which is exactly the
// asymmetry the paper's §5 translation has to bridge.
#pragma once

#include <cstdint>

#include "lang/builtins.h"
#include "lang/type.h"

namespace bridgecl::interp {

/// Sampler state bits (subset of OpenCL sampler properties), encoded as
/// the CLK_* sampler constants of the builtin catalog.
using lang::kSamplerAddressClamp;
using lang::kSamplerFilterLinear;
using lang::kSamplerNormalizedCoords;

/// POD descriptor stored in device memory. All fields little-endian.
struct ImageDesc {
  uint64_t data_va = 0;      // first texel
  uint32_t width = 0;        // in texels
  uint32_t height = 1;
  uint32_t depth = 1;
  uint32_t channels = 4;     // 1..4
  uint32_t elem_kind = 0;    // lang::ScalarKind of one channel
  uint32_t row_pitch = 0;    // bytes per row
  uint32_t slice_pitch = 0;  // bytes per slice
  uint32_t sampler_bits = 0; // CUDA texture refs: bound sampler state
  uint32_t dims = 2;
};

inline uint32_t ImageTexelBytes(const ImageDesc& d) {
  return static_cast<uint32_t>(
             lang::ScalarByteSize(static_cast<lang::ScalarKind>(d.elem_kind))) *
         d.channels;
}

}  // namespace bridgecl::interp
