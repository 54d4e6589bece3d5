#include "workloads/workloads.hh"

#include "lir/lir.hh"
#include "support/logging.hh"
#include "workloads/suites.hh"

namespace selvec
{

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "093.nasa7",  "101.tomcatv", "103.su2cor",
        "104.hydro2d", "125.turb3d", "146.wave5",
        "171.swim",   "172.mgrid",   "301.apsi",
    };
    return names;
}

Expected<Suite>
tryMakeSuite(const std::string &name)
{
    if (name == "093.nasa7")
        return makeNasa7();
    if (name == "101.tomcatv")
        return makeTomcatv();
    if (name == "103.su2cor")
        return makeSu2cor();
    if (name == "104.hydro2d")
        return makeHydro2d();
    if (name == "125.turb3d")
        return makeTurb3d();
    if (name == "146.wave5")
        return makeWave5();
    if (name == "171.swim")
        return makeSwim();
    if (name == "172.mgrid")
        return makeMgrid();
    if (name == "301.apsi")
        return makeApsi();
    return Status::error(ErrorCode::InvalidInput, "workloads",
                         "unknown suite '" + name + "'");
}

Suite
makeSuiteOrDie(const std::string &name)
{
    Expected<Suite> suite = tryMakeSuite(name);
    if (!suite.ok())
        SV_FATAL("%s", suite.status().str().c_str());
    return suite.takeValue();
}

std::vector<Suite>
allSuites()
{
    std::vector<Suite> suites;
    for (const std::string &name : suiteNames())
        suites.push_back(makeSuiteOrDie(name));
    return suites;
}

Suite
dotProductSuite()
{
    Suite suite;
    suite.name = "dot";
    suite.description = "Figure 1 dot product";
    suite.module = parseLirOrDie(R"(
array X f64 4096
array Y f64 4096

loop dot {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        y = load Y[i]
        t = fmul x y
        s1 = fadd s t
    }
    liveout s1
}
)");
    WorkloadLoop wl;
    wl.loopIndex = 0;
    wl.tripCount = 1024;
    wl.invocations = 100;
    wl.liveIns["s0"] = RtVal::scalarF(0.0);
    suite.loops.push_back(std::move(wl));
    return suite;
}

} // namespace selvec
