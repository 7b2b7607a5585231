#include "obs/ledger.hh"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "support/strings.hh"

namespace gmlake::obs
{

std::string
AllocProvenance::originLabel() const
{
    std::string label;
    if (phase == AllocPhase::s3MultiBlocks ||
        (phase == AllocPhase::s4Insufficient && !members.empty()))
        label = "stitch of " + std::to_string(members.size());
    else
        label = allocPhaseName(phase);
    if (phase == AllocPhase::s4Insufficient && members.empty())
        label = "fresh reserve";
    if (faultIns > 0)
        label += " + post-spill remap";
    return label;
}

Ledger
Ledger::build(const RecorderSnapshot &snap)
{
    // Per-token aggregates of everything that happened inside one
    // allocate() scope; attached to the allocation afterwards.
    struct Scope
    {
        std::uint64_t deviceCostNs = 0;
        std::uint64_t deviceCalls = 0;
        std::uint64_t spills = 0;
        std::uint64_t faultIns = 0;
        std::uint64_t reclaimRungs = 0;
        std::uint64_t lastPhase = 0;
        bool sawPhase = false;
        std::uint64_t sBlockId = 0;
        std::vector<std::uint64_t> members;
    };
    std::unordered_map<std::uint64_t, Scope> scopes;
    Ledger ledger;
    ledger.mDropped = snap.dropped;
    std::unordered_map<std::uint64_t, std::size_t> openBinding;

    // Pass 1: aggregate per-token scopes. The `alloc` span is
    // stamped with the scope's *start* time, so in the merged stream
    // it sorts before the device spans and decision instants that
    // happened inside it — scopes must be complete before any alloc
    // span is resolved against them.
    for (const Event &e : snap.events) {
        switch (e.cat) {
          case EventCat::device: {
            if (e.a2 != 0) {
                Scope &s = scopes[e.a2];
                s.deviceCostNs += e.dur;
                ++s.deviceCalls;
            }
            break;
          }
          case EventCat::offload: {
            if (e.a2 != 0) {
                Scope &s = scopes[e.a2];
                if (e.name == EvName::spill)
                    ++s.spills;
                else if (e.name == EvName::faultIn)
                    ++s.faultIns;
            }
            break;
          }
          case EventCat::alloc: {
            switch (e.name) {
              case EvName::allocPhase: {
                Scope &s = scopes[e.a2];
                s.lastPhase = e.a0;
                s.sawPhase = true;
                break;
              }
              case EvName::stitch: {
                Scope &s = scopes[e.a2];
                s.sBlockId = e.a0;
                if (const std::uint64_t *blob = snap.blobOf(e))
                    s.members.assign(blob, blob + e.blobLen);
                break;
              }
              case EvName::reclaimRung: {
                ++scopes[e.a2].reclaimRungs;
                break;
              }
              default:
                break;
            }
            break;
          }
          default:
            break;
        }
    }

    // Pass 2: resolve allocations against their completed scopes and
    // replay the tensor bind/free intervals chronologically.
    for (const Event &e : snap.events) {
        if (e.cat == EventCat::alloc && e.name == EvName::alloc) {
            if (e.a0 == 0)
                continue; // failed allocation, nothing to pin
            AllocProvenance p;
            p.allocId = e.a0;
            p.token = e.a2;
            p.requested = e.a1;
            p.simTime = e.simTime;
            p.dur = e.dur;
            auto it = scopes.find(e.a2);
            if (it != scopes.end()) {
                const Scope &s = it->second;
                p.deviceCostNs = s.deviceCostNs;
                p.deviceCalls = s.deviceCalls;
                p.spills = s.spills;
                p.faultIns = s.faultIns;
                p.reclaimRungs = s.reclaimRungs;
                p.sBlockId = s.sBlockId;
                p.members = s.members;
                if (s.sawPhase)
                    p.phase = static_cast<AllocPhase>(s.lastPhase);
            }
            ledger.mAllocs.emplace(p.allocId, std::move(p));
        } else if (e.cat == EventCat::engine) {
            if (e.name == EvName::tensorBind) {
                TensorBinding binding;
                binding.tensor = e.a0;
                binding.allocId = e.a1;
                binding.bytes = e.a2;
                binding.boundAt = e.simTime;
                openBinding[e.a0] = ledger.mBindings.size();
                ledger.mBindings.push_back(binding);
            } else if (e.name == EvName::tensorFree) {
                auto it = openBinding.find(e.a0);
                if (it != openBinding.end()) {
                    ledger.mBindings[it->second].freedAt = e.simTime;
                    openBinding.erase(it);
                }
            }
        }
    }
    return ledger;
}

const AllocProvenance *
Ledger::alloc(std::uint64_t allocId) const
{
    auto it = mAllocs.find(allocId);
    return it == mAllocs.end() ? nullptr : &it->second;
}

std::vector<const TensorBinding *>
Ledger::tensor(std::uint64_t tensor) const
{
    std::vector<const TensorBinding *> out;
    for (const TensorBinding &binding : mBindings)
        if (binding.tensor == tensor)
            out.push_back(&binding);
    return out;
}

std::vector<const TensorBinding *>
Ledger::liveAt(std::uint64_t tick) const
{
    std::vector<const TensorBinding *> out;
    for (const TensorBinding &binding : mBindings)
        if (binding.liveAt(tick))
            out.push_back(&binding);
    std::sort(out.begin(), out.end(),
              [](const TensorBinding *a, const TensorBinding *b) {
                  if (a->tensor != b->tensor)
                      return a->tensor < b->tensor;
                  return a->boundAt < b->boundAt;
              });
    return out;
}

void
Ledger::reportBinding(std::ostream &out,
                      const TensorBinding &binding) const
{
    out << "  tensor " << binding.tensor << ": "
        << formatBytes(binding.bytes) << ", bound at "
        << formatTime(binding.boundAt);
    if (binding.freedAt == ~std::uint64_t{0})
        out << (mDropped != 0 ? ", no free in the recorded prefix"
                              : ", still live");
    else
        out << ", freed at " << formatTime(binding.freedAt);
    out << "\n";
    const AllocProvenance *p = alloc(binding.allocId);
    if (p == nullptr) {
        out << "    alloc #" << binding.allocId
            << ": no provenance recorded (allocated before "
               "tracing started or record dropped)\n";
        return;
    }
    out << "    alloc #" << p->allocId << ": " << p->originLabel()
        << ", requested " << formatBytes(p->requested) << " at "
        << formatTime(p->simTime) << "\n";
    if (!p->members.empty()) {
        out << "    backing pBlocks:";
        for (const std::uint64_t member : p->members)
            out << " " << member;
        if (p->sBlockId != 0)
            out << " (sBlock " << p->sBlockId << ")";
        out << "\n";
    }
    out << "    device API: " << p->deviceCalls << " calls, "
        << formatTime(p->deviceCostNs)
        << " simulated cost inside allocate ("
        << formatTime(p->dur) << " total)\n";
    if (p->spills != 0 || p->faultIns != 0)
        out << "    offload: " << p->spills << " spills, "
            << p->faultIns << " fault-ins within scope\n";
}

void
Ledger::reportPartial(std::ostream &out) const
{
    if (mDropped != 0)
        out << "PARTIAL: " << mDropped
            << " events dropped; answers cover the recorded prefix "
               "only\n";
}

void
Ledger::reportTensor(std::ostream &out, std::uint64_t tensor) const
{
    reportPartial(out);
    const auto bindings = this->tensor(tensor);
    if (bindings.empty()) {
        out << "tensor " << tensor
            << (mDropped != 0 ? ": not in the recorded prefix\n"
                              : ": never bound in this run\n");
        return;
    }
    out << "tensor " << tensor << ": " << bindings.size()
        << " binding(s)\n";
    for (const TensorBinding *binding : bindings)
        reportBinding(out, *binding);
}

void
Ledger::reportAt(std::ostream &out, std::uint64_t tick) const
{
    reportPartial(out);
    const auto live = liveAt(tick);
    out << "at " << formatTime(tick) << ": " << live.size()
        << " live tensor(s)\n";
    for (const TensorBinding *binding : live)
        reportBinding(out, *binding);
}

} // namespace gmlake::obs
