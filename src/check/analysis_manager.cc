#include "check/analysis_manager.h"

namespace pibe::check {

const Cfg&
AnalysisManager::cfg(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.cfg) {
        e.cfg = std::make_unique<Cfg>(module_.func(f));
        ++computations_;
    } else {
        ++hits_;
    }
    return *e.cfg;
}

const Liveness&
AnalysisManager::liveness(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.live) {
        e.live = std::make_unique<Liveness>(module_.func(f), cfg(f));
        ++computations_;
    } else {
        ++hits_;
    }
    return *e.live;
}

const FrameLiveness&
AnalysisManager::frameLiveness(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.frame_live) {
        e.frame_live =
            std::make_unique<FrameLiveness>(module_.func(f), cfg(f));
        ++computations_;
    } else {
        ++hits_;
    }
    return *e.frame_live;
}

const ReachingDefs&
AnalysisManager::reachingDefs(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.reaching) {
        e.reaching =
            std::make_unique<ReachingDefs>(module_.func(f), cfg(f));
        ++computations_;
    } else {
        ++hits_;
    }
    return *e.reaching;
}

const DefiniteAssignment&
AnalysisManager::definiteAssignment(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.assigned) {
        e.assigned = std::make_unique<DefiniteAssignment>(module_.func(f),
                                                          cfg(f));
        ++computations_;
    } else {
        ++hits_;
    }
    return *e.assigned;
}

} // namespace pibe::check
