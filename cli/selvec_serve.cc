/**
 * @file
 * selvec_serve: the batch compile service front-end.
 *
 *   selvec_serve [requests.jsonl] [--output FILE] [--jobs N]
 *
 * Reads JSON-lines compile requests (selvec-repro-v1 documents, one
 * per line; see docs/DRIVER.md for the line protocol) from a file or
 * stdin, deduplicates identical requests within the batch, fans them
 * out over the thread pool, and streams one selvec-serve-v1 response
 * line per request to stdout (or --output), in input order.
 *
 * A batch summary goes to stderr, so stdout stays pure protocol.
 *
 * Exit status: 0 when every request succeeded, 1 when any request
 * failed or was malformed (the batch still ran to completion), 2 on
 * usage or input-file errors. Numeric flag values are parsed
 * strictly: `--jobs abc` is a usage error, never a silent jobs=0
 * batch.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "service/serve.hh"

using namespace selvec;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: selvec_serve [requests.jsonl] [--output FILE] "
        "[--jobs N]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Expected<ServeCliConfig> parsed =
        parseServeArgs(std::vector<std::string>(argv + 1,
                                                argv + argc));
    if (!parsed.ok()) {
        std::fprintf(stderr, "selvec_serve: %s\n",
                     parsed.status().message().c_str());
        return usage();
    }
    const ServeCliConfig &cfg = parsed.value();

    ServeOptions options;
    options.jobs = cfg.jobs;

    std::ifstream inFile;
    if (!cfg.inputPath.empty()) {
        inFile.open(cfg.inputPath);
        if (!inFile) {
            std::fprintf(stderr,
                         "selvec_serve: cannot open '%s'\n",
                         cfg.inputPath.c_str());
            return 2;
        }
    }
    std::istream &in = !cfg.inputPath.empty()
                           ? static_cast<std::istream &>(inFile)
                           : std::cin;

    std::ofstream outFile;
    if (!cfg.outputPath.empty()) {
        outFile.open(cfg.outputPath, std::ios::trunc);
        if (!outFile) {
            std::fprintf(stderr,
                         "selvec_serve: cannot write '%s'\n",
                         cfg.outputPath.c_str());
            return 2;
        }
    }
    std::ostream &out = !cfg.outputPath.empty()
                            ? static_cast<std::ostream &>(outFile)
                            : std::cout;

    ServeSummary summary = serveBatch(in, out, options);

    std::fprintf(stderr,
                 "selvec_serve: %lld requests, %lld ok, %lld failed, "
                 "%lld malformed, %lld deduped\n",
                 static_cast<long long>(summary.requests),
                 static_cast<long long>(summary.ok),
                 static_cast<long long>(summary.failed),
                 static_cast<long long>(summary.malformed),
                 static_cast<long long>(summary.deduped));

    return summary.failed > 0 || summary.malformed > 0 ? 1 : 0;
}
