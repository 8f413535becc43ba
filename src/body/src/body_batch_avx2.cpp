// AVX2 flavor of the body kernels: same source, compiled with -mavx2 so
// the f32xN<8> lane loops lower to single 256-bit instructions. Only
// added to the build on x86 when the compiler supports the flag (see
// src/body/CMakeLists.txt); selected at runtime via cpuid.
//
// Note -mavx2 deliberately does NOT come with -mfma: fused multiply-add
// would change lane results versus the scalar reference and break the
// bit-identity contract documented in geometry/simd.hpp.
#define SEMHOLO_BODY_BATCH_FN evaluateBodyBatchAvx2
#define SEMHOLO_CAPSULE_BOUNDS_FN capsuleBoundsAvx2
#include "body_batch_kernel.inl"
