# Feed bt_explorer --load-profile a profile CSV holding a non-finite
# cell, a duplicated (stage, PU) row standing in for a missing one, a
# renamed stage, or a valid profile of another app or device, and
# require the documented usage exit code (1), not an abort or a
# silently accepted table.
#
#   cmake -DEXPLORER=<bt_explorer> -DWORK_DIR=<dir> -P explorer_bad_profile.cmake

# expect_rejected(<csv> <what> [<device> <app>]); pixel/octree default.
function(expect_rejected csv what)
    set(device pixel)
    set(app octree)
    if(ARGC GREATER 3)
        set(device "${ARGV2}")
        set(app "${ARGV3}")
    endif()
    execute_process(
        COMMAND "${EXPLORER}" --device "${device}" --app "${app}"
                --load-profile "${csv}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "bt_explorer --load-profile with ${what} exited '${rc}', "
            "expected 1")
    endif()
endfunction()

foreach(bad nan inf -inf)
    set(csv "${WORK_DIR}/bad_profile_${bad}.csv")
    file(WRITE "${csv}" "stage,pu,mean_s,stddev_s\nmorton,big,${bad},0\n")
    expect_rejected("${csv}" "a '${bad}' cell")
endforeach()

# A complete profile of the same (device, app), saved by bt_explorer
# itself, with its last row replaced by a copy of its first: the row
# count still matches stages x PUs.
set(good "${WORK_DIR}/good_profile.csv")
execute_process(
    COMMAND "${EXPLORER}" --device pixel --app octree
            --save-profile "${good}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "bt_explorer --save-profile exited '${rc}'")
endif()
file(STRINGS "${good}" rows)
list(GET rows 1 first_row)
list(POP_BACK rows)
list(APPEND rows "${first_row}")
list(JOIN rows "\n" body)
set(csv "${WORK_DIR}/bad_profile_duplicate.csv")
file(WRITE "${csv}" "${body}\n")
expect_rejected("${csv}" "a duplicated row")

# The intact profile is accepted for the (device, app) it was saved
# for, and refused for another app's stages or another device's PUs.
execute_process(
    COMMAND "${EXPLORER}" --device pixel --app octree --no-autotune
            --load-profile "${good}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "bt_explorer rejected its own profile: '${rc}'")
endif()
expect_rejected("${good}" "another app's profile" pixel dense)
expect_rejected("${good}" "another device's profile" jetson octree)

# Every row of one stage renamed: the table is complete and well
# formed, but its stages are no longer the app's.
file(STRINGS "${good}" rows)
list(TRANSFORM rows REPLACE "^morton," "mortonx,")
list(JOIN rows "\n" body)
set(csv "${WORK_DIR}/bad_profile_renamed.csv")
file(WRITE "${csv}" "${body}\n")
expect_rejected("${csv}" "a renamed stage")
