/**
 * @file
 * google-benchmark microbenchmarks of the allocator implementations'
 * host-side data-structure costs: allocate/deallocate round trips,
 * the stitch path, and mapping-table range work. These measure
 * real wall-clock time of the bookkeeping code (the simulated device
 * latencies are separate and covered by bench_table1/bench_fig6).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "alloc/caching_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

vmm::DeviceConfig
bigDevice()
{
    vmm::DeviceConfig cfg;
    cfg.capacity = 64_GiB;
    return cfg;
}

void
BM_CachingAllocateFree(benchmark::State &state)
{
    vmm::Device dev(bigDevice());
    alloc::CachingAllocator allocator(dev);
    const Bytes size = static_cast<Bytes>(state.range(0));
    // Warm the pool so the loop measures cache hits.
    const auto warm = allocator.allocate(size);
    (void)allocator.deallocate(warm->id);
    for (auto _ : state) {
        const auto a = allocator.allocate(size);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
    }
}
BENCHMARK(BM_CachingAllocateFree)->Arg(4096)->Arg(2_MiB)->Arg(64_MiB);

void
BM_GmlakeAllocateFree(benchmark::State &state)
{
    vmm::Device dev(bigDevice());
    core::GMLakeAllocator allocator(dev);
    const Bytes size = static_cast<Bytes>(state.range(0));
    const auto warm = allocator.allocate(size);
    (void)allocator.deallocate(warm->id);
    for (auto _ : state) {
        const auto a = allocator.allocate(size);
        benchmark::DoNotOptimize(a.value().addr);
        (void)allocator.deallocate(a->id);
    }
}
BENCHMARK(BM_GmlakeAllocateFree)->Arg(4096)->Arg(2_MiB)->Arg(64_MiB);

void
BM_GmlakeStitchPath(benchmark::State &state)
{
    // Force the S3 stitch path every iteration: two cached fragments
    // serve one double-size request, which is then torn back down.
    vmm::Device dev(bigDevice());
    core::GMLakeConfig gc;
    gc.restitchOnSplit = false;
    gc.maxCachedSBlocks = 1; // evict immediately: always re-stitch
    core::GMLakeAllocator allocator(dev, gc);

    const auto a = allocator.allocate(16_MiB);
    const auto spacer = allocator.allocate(2_MiB);
    const auto b = allocator.allocate(16_MiB);
    (void)spacer;
    (void)allocator.deallocate(a->id);
    (void)allocator.deallocate(b->id);

    for (auto _ : state) {
        const auto big = allocator.allocate(32_MiB);
        benchmark::DoNotOptimize(big.value().addr);
        (void)allocator.deallocate(big->id);
    }
    state.counters["stitches"] = static_cast<double>(
        allocator.strategy().stitches);
}
BENCHMARK(BM_GmlakeStitchPath);

void
BM_MappingsInScratch(benchmark::State &state)
{
    // Range queries over a deeply chunked mapping table: the
    // caller-provided scratch overload performs no allocation per
    // call, unlike the returning overload it replaced on the
    // device's hot paths.
    vmm::Device dev(bigDevice());
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    const auto va = dev.memAddressReserve(chunks * 2_MiB);
    for (std::size_t i = 0; i < chunks; ++i) {
        const auto h = dev.memCreate(2_MiB);
        (void)dev.memMap(*va + static_cast<VirtAddr>(i) * 2_MiB, *h);
    }
    (void)dev.memSetAccess(*va, chunks * 2_MiB);

    std::vector<vmm::MappingTable::Entry> scratch;
    for (auto _ : state) {
        dev.mappings().mappingsIn(*va, chunks * 2_MiB, scratch);
        benchmark::DoNotOptimize(scratch.size());
    }
    state.counters["chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_MappingsInScratch)->Arg(16)->Arg(256)->Arg(1024);

void
BM_DeviceStitchTeardown(benchmark::State &state)
{
    // One batched map + one unmap of an sBlock-shaped range: the
    // extent table makes both O(extents), not O(chunks)-tree-ops.
    vmm::Device dev(bigDevice());
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    std::vector<PhysHandle> handles;
    for (std::size_t i = 0; i < chunks; ++i)
        handles.push_back(*dev.memCreate(2_MiB));
    const auto va = dev.memAddressReserve(chunks * 2_MiB);
    std::vector<std::pair<VirtAddr, PhysHandle>> batch(chunks);
    for (auto _ : state) {
        for (std::size_t i = 0; i < chunks; ++i) {
            batch[i] = {*va + static_cast<VirtAddr>(i) * 2_MiB,
                        handles[i]};
        }
        benchmark::DoNotOptimize(dev.memMapBatch(batch).ok());
        benchmark::DoNotOptimize(
            dev.memUnmap(*va, chunks * 2_MiB).ok());
    }
    state.counters["chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_DeviceStitchTeardown)->Arg(64)->Arg(1024);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("OPT-13B");
    cfg.strategies = workload::Strategies::parse("LR");
    cfg.gpus = 4;
    cfg.batchSize = 16;
    cfg.iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto trace = workload::generateTrainingTrace(cfg);
        benchmark::DoNotOptimize(trace.size());
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(8);

} // namespace

BENCHMARK_MAIN();
