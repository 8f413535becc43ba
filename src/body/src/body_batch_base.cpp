// Portable baseline body kernels: compiled with the project's default
// architecture flags (SSE2 on x86-64, NEON on aarch64, scalar elsewhere).
#define SEMHOLO_BODY_BATCH_FN evaluateBodyBatchBaseline
#define SEMHOLO_CAPSULE_BOUNDS_FN capsuleBoundsBaseline
#include "body_batch_kernel.inl"
