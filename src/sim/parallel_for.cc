#include "sim/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pubs::sim
{

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
parallelFor(unsigned threads, size_t n,
            const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    auto work = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                next.store(n); // start nothing new
            }
        }
    };

    size_t workers =
        std::min<size_t>(threads ? threads : hardwareThreads(), n);
    std::vector<std::thread> pool;
    try {
        for (size_t t = 1; t < workers; ++t)
            pool.emplace_back(work);
    } catch (...) {
        // No thread may outlive this frame: stop, join, then report.
        next.store(n);
        for (std::thread &thread : pool)
            thread.join();
        throw;
    }
    work();
    for (std::thread &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace pubs::sim
