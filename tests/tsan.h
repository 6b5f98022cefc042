// Whether this test binary is built with ThreadSanitizer.  The hardware
// stress tests run far fewer rounds there: TSan slows every atomic access
// by an order of magnitude, and its CI job runs them only as a race check.
#pragma once

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsan = true;
#else
inline constexpr bool kTsan = false;
#endif
#else
inline constexpr bool kTsan = false;
#endif
