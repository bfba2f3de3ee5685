#include "trace/event.h"

namespace lumos::trace {

std::optional<EventCategory> category_from_string(std::string_view s) {
  if (s == "cpu_op") return EventCategory::CpuOp;
  if (s == "cuda_runtime") return EventCategory::CudaRuntime;
  if (s == "kernel") return EventCategory::Kernel;
  if (s == "gpu_memcpy") return EventCategory::Memcpy;
  if (s == "gpu_memset") return EventCategory::Memset;
  if (s == "user_annotation") return EventCategory::UserAnnotation;
  return std::nullopt;
}

std::string_view to_string(EventCategory cat) {
  switch (cat) {
    case EventCategory::CpuOp: return "cpu_op";
    case EventCategory::CudaRuntime: return "cuda_runtime";
    case EventCategory::Kernel: return "kernel";
    case EventCategory::Memcpy: return "gpu_memcpy";
    case EventCategory::Memset: return "gpu_memset";
    case EventCategory::UserAnnotation: return "user_annotation";
  }
  return "unknown";
}

CudaApi cuda_api_from_name(std::string_view name) {
  if (name == "cudaLaunchKernel" || name == "cudaLaunchKernelExC") {
    return CudaApi::LaunchKernel;
  }
  if (name == "cudaMemcpyAsync") return CudaApi::MemcpyAsync;
  if (name == "cudaMemsetAsync") return CudaApi::MemsetAsync;
  if (name == "cudaEventRecord") return CudaApi::EventRecord;
  if (name == "cudaStreamWaitEvent") return CudaApi::StreamWaitEvent;
  if (name == "cudaStreamSynchronize") return CudaApi::StreamSynchronize;
  if (name == "cudaDeviceSynchronize") return CudaApi::DeviceSynchronize;
  if (name == "cudaEventSynchronize") return CudaApi::EventSynchronize;
  return CudaApi::None;
}

bool launches_device_work(CudaApi api) {
  return api == CudaApi::LaunchKernel || api == CudaApi::MemcpyAsync ||
         api == CudaApi::MemsetAsync;
}

bool blocks_cpu(CudaApi api) {
  return api == CudaApi::StreamSynchronize ||
         api == CudaApi::DeviceSynchronize ||
         api == CudaApi::EventSynchronize;
}

}  // namespace lumos::trace
